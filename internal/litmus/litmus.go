// Package litmus is the persistency litmus-test harness: small concurrent
// persist programs whose complete crash-visible outcome sets are computed
// twice — once by a standalone executable reference semantics (a tiny
// Px86-with-persist-buffers interpreter, independent of internal/cpu),
// and once from the real timing simulator via internal/multicore — and
// compared. Every outcome the machine can exhibit must be allowed by the
// reference, and the SP machine's outcome set must be byte-equal to the
// plain machine's (speculation invisible), including under forced
// coherence-probe rollbacks and NACK windows mid-speculation.
//
// A program is 1–4 threads of straight-line persist ops (mixed-size
// stores, clwb/clflushopt, sfence, pcommit, loads) over named locations
// packed into at most 4 cache lines. Outcomes are crash-visible durable
// images of those locations, canonicalized as sorted "name=value" strings,
// at 8-byte NVM write atomicity (a location spanning two chunks can land
// torn).
package litmus

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"specpersist/internal/mem"
)

// Program size caps. They bound the reference interpreter's state space
// (and the machine explorer's), so Validate enforces them hard.
const (
	MaxThreads      = 4
	MaxOpsPerThread = 12
	MaxLocs         = 6
	MaxLines        = 4
	maxChunks       = 8 // distinct footprint (line, 8-byte chunk) pairs
)

// Op kinds. Loads and nops exist to exercise the pipeline (dependencies,
// retirement slots) without touching persistence state.
const (
	OpStore      = "st"
	OpClwb       = "clwb"
	OpClflushOpt = "clflushopt"
	OpSfence     = "sfence"
	OpPcommit    = "pcommit"
	OpLoad       = "ld"
	OpNop        = "nop"
)

// Loc is a named memory location: Size bytes at byte Off of cache line
// Line. Locations may overlap and may straddle an 8-byte chunk boundary
// (mixed-size torn-store coverage), but never a line boundary.
type Loc struct {
	Name string `json:"name"`
	Line int    `json:"line"`
	Off  int    `json:"off"`
	Size int    `json:"size"`
}

// Op is one straight-line instruction of a thread. Loc names the target
// location for st/clwb/clflushopt/ld (flushes flush the whole containing
// line); Val is the stored value for st (little-endian, truncated to the
// location's size).
type Op struct {
	Kind string `json:"op"`
	Loc  string `json:"loc,omitempty"`
	Val  uint64 `json:"val,omitempty"`
}

// Program is one litmus test: concurrent threads over shared locations.
// All memory starts zeroed.
type Program struct {
	Name    string `json:"name"`
	Locs    []Loc  `json:"locs"`
	Threads [][]Op `json:"threads"`
}

// Clone deep-copies the program (shrinking mutates candidates freely).
func (p Program) Clone() Program {
	q := p
	q.Locs = append([]Loc(nil), p.Locs...)
	q.Threads = make([][]Op, len(p.Threads))
	for i, th := range p.Threads {
		q.Threads[i] = append([]Op(nil), th...)
	}
	return q
}

// Validate checks the program against the harness caps and returns a
// descriptive error for the first problem found.
func (p *Program) Validate() error {
	if len(p.Threads) < 1 || len(p.Threads) > MaxThreads {
		return fmt.Errorf("litmus: program needs 1..%d threads, got %d", MaxThreads, len(p.Threads))
	}
	if len(p.Locs) < 1 || len(p.Locs) > MaxLocs {
		return fmt.Errorf("litmus: program needs 1..%d locations, got %d", MaxLocs, len(p.Locs))
	}
	names := make(map[string]bool, len(p.Locs))
	chunks := make(map[[2]int]bool)
	for _, l := range p.Locs {
		if l.Name == "" {
			return fmt.Errorf("litmus: location with empty name")
		}
		if names[l.Name] {
			return fmt.Errorf("litmus: duplicate location name %q", l.Name)
		}
		names[l.Name] = true
		if l.Line < 0 || l.Line >= MaxLines {
			return fmt.Errorf("litmus: location %q line %d out of range [0,%d)", l.Name, l.Line, MaxLines)
		}
		if l.Size < 1 || l.Size > 8 {
			return fmt.Errorf("litmus: location %q size %d out of range [1,8]", l.Name, l.Size)
		}
		if l.Off < 0 || l.Off+l.Size > mem.LineSize {
			return fmt.Errorf("litmus: location %q bytes [%d,%d) outside its line", l.Name, l.Off, l.Off+l.Size)
		}
		for b := 0; b < l.Size; b++ {
			chunks[[2]int{l.Line, (l.Off + b) / 8}] = true
		}
	}
	if len(chunks) > maxChunks {
		return fmt.Errorf("litmus: footprint spans %d 8-byte chunks, cap is %d", len(chunks), maxChunks)
	}
	for t, th := range p.Threads {
		if len(th) > MaxOpsPerThread {
			return fmt.Errorf("litmus: thread %d has %d ops, cap is %d", t, len(th), MaxOpsPerThread)
		}
		for k, op := range th {
			switch op.Kind {
			case OpStore, OpClwb, OpClflushOpt, OpLoad:
				if !names[op.Loc] {
					return fmt.Errorf("litmus: thread %d op %d (%s) names unknown location %q", t, k, op.Kind, op.Loc)
				}
			case OpSfence, OpPcommit, OpNop:
				if op.Loc != "" {
					return fmt.Errorf("litmus: thread %d op %d (%s) must not name a location", t, k, op.Kind)
				}
			default:
				return fmt.Errorf("litmus: thread %d op %d has unknown kind %q", t, k, op.Kind)
			}
			if op.Kind != OpStore && op.Val != 0 {
				return fmt.Errorf("litmus: thread %d op %d (%s) carries a value", t, k, op.Kind)
			}
		}
	}
	return nil
}

// String renders the program compactly for reports and test names.
func (p *Program) String() string {
	blob, _ := json.Marshal(p)
	return string(blob)
}

// chunkRef identifies one 8-byte atomic write unit of the footprint.
type chunkRef struct{ line, idx int }

// bytePos places one byte of a location in a chunk image.
type bytePos struct{ chunk, off uint8 }

// plan is a validated program compiled for the explorers: dense line and
// chunk indices, resolved locations, simulator addresses. Everything an
// explorer transition needs is a slice index, never a map lookup.
type plan struct {
	p        *Program
	locIdx   map[string]int
	lines    []int       // distinct line numbers used, ascending
	lineIdx  map[int]int // line number -> dense index
	chunks   []chunkRef  // footprint chunks, sorted (line, idx)
	chunkBit []uint8     // per chunk: its dense line's mask bit
	locBytes [][]bytePos // per location: its bytes' positions, little-endian order
	locLine  []int       // per location: dense line index
	byName   []int       // loc indices sorted by name (outcome order)
}

// compile validates and indexes the program.
func compile(p *Program) (*plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pl := &plan{
		p:       p,
		locIdx:  make(map[string]int, len(p.Locs)),
		lineIdx: make(map[int]int),
	}
	for i, l := range p.Locs {
		pl.locIdx[l.Name] = i
		if _, ok := pl.lineIdx[l.Line]; !ok {
			pl.lineIdx[l.Line] = 0 // assigned after sorting
			pl.lines = append(pl.lines, l.Line)
		}
	}
	sort.Ints(pl.lines)
	for i, line := range pl.lines {
		pl.lineIdx[line] = i
	}
	chunkIdx := make(map[chunkRef]int)
	for _, l := range p.Locs {
		for b := 0; b < l.Size; b++ {
			c := chunkRef{line: l.Line, idx: (l.Off + b) / 8}
			if _, ok := chunkIdx[c]; !ok {
				chunkIdx[c] = 0
				pl.chunks = append(pl.chunks, c)
			}
		}
	}
	sort.Slice(pl.chunks, func(i, j int) bool {
		a, b := pl.chunks[i], pl.chunks[j]
		return a.line < b.line || (a.line == b.line && a.idx < b.idx)
	})
	pl.chunkBit = make([]uint8, len(pl.chunks))
	for i, c := range pl.chunks {
		chunkIdx[c] = i
		pl.chunkBit[i] = 1 << pl.lineIdx[c.line]
	}
	pl.locBytes = make([][]bytePos, len(p.Locs))
	pl.locLine = make([]int, len(p.Locs))
	for i, l := range p.Locs {
		pl.locLine[i] = pl.lineIdx[l.Line]
		for b := 0; b < l.Size; b++ {
			ci := chunkIdx[chunkRef{line: l.Line, idx: (l.Off + b) / 8}]
			pl.locBytes[i] = append(pl.locBytes[i], bytePos{chunk: uint8(ci), off: uint8((l.Off + b) % 8)})
		}
	}
	pl.byName = make([]int, len(p.Locs))
	for i := range pl.byName {
		pl.byName[i] = i
	}
	sort.Slice(pl.byName, func(i, j int) bool {
		return p.Locs[pl.byName[i]].Name < p.Locs[pl.byName[j]].Name
	})
	return pl, nil
}

// opLine returns the dense line index of the location an op names.
func (pl *plan) opLine(op Op) int { return pl.locLine[pl.locIdx[op.Loc]] }

// addr returns the simulator address of a location.
func (pl *plan) addr(l Loc) uint64 {
	return mem.DefaultBase + uint64(l.Line)*mem.LineSize + uint64(l.Off)
}

// lineOf maps a simulator address back to a dense line index, or -1 for an
// address outside the program's footprint.
func (pl *plan) lineOf(a uint64) int {
	off := int(a - mem.DefaultBase)
	if off < 0 || off >= MaxLines*mem.LineSize {
		return -1
	}
	if li, ok := pl.lineIdx[off/mem.LineSize]; ok {
		return li
	}
	return -1
}

// chunk is one 8-byte atomic NVM write unit.
type chunk [8]byte

// memState is the persistence state of the program footprint, shared by
// the reference interpreter and the machine-stream explorer. It mirrors
// internal/pmem at chunk granularity: the volatile view (caches + store
// buffers), the controller WPQ (one line snapshot, taken at flush time),
// and the durable image. Masks are per dense line index. The struct is
// comparable, so explorers memoize on it directly.
type memState struct {
	vol, dur, wpq [maxChunks]chunk
	wpqMask       uint8 // line has a snapshot pending in the WPQ
	dirty         uint8 // line written since its last flush
}

// storeLoc applies a store to location li to the volatile view and
// dirties the line. All three explorers apply stores through it.
func (pl *plan) storeLoc(st *memState, li int, val uint64) {
	for b, p := range pl.locBytes[li] {
		st.vol[p.chunk][p.off] = byte(val >> (8 * b))
	}
	st.dirty |= 1 << pl.locLine[li]
}

// flushLine snapshots a dirty line into the WPQ (pmem.Clwb semantics: a
// clean line is a no-op and leaves any older snapshot undisturbed).
func (pl *plan) flushLine(st *memState, li int) {
	bit := uint8(1) << li
	if st.dirty&bit == 0 {
		return
	}
	for ci, cb := range pl.chunkBit {
		if cb == bit {
			st.wpq[ci] = st.vol[ci]
		}
	}
	st.wpqMask |= bit
	st.dirty &^= bit
}

// drainWPQ makes every pending line snapshot durable (pcommit).
func (pl *plan) drainWPQ(st *memState) {
	if st.wpqMask == 0 {
		return
	}
	for ci, cb := range pl.chunkBit {
		if st.wpqMask&cb != 0 {
			st.dur[ci] = st.wpq[ci]
		}
	}
	st.wpqMask = 0
}

// readLoc extracts a location's little-endian value from a chunk image.
func (pl *plan) readLoc(img *[maxChunks]chunk, li int) uint64 {
	var v uint64
	for b, p := range pl.locBytes[li] {
		v |= uint64(img[p.chunk][p.off]) << (8 * b)
	}
	return v
}

// appendOutcome renders a chunk image as the canonical outcome string:
// locations in name order, "name=value", space-separated.
func (pl *plan) appendOutcome(buf []byte, img *[maxChunks]chunk) []byte {
	for i, li := range pl.byName {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, pl.p.Locs[li].Name...)
		buf = append(buf, '=')
		buf = strconv.AppendUint(buf, pl.readLoc(img, li), 10)
	}
	return buf
}

// crashOutcomes enumerates every durable image a crash at this state can
// leave and adds each outcome to set. Per chunk, a crash independently
// keeps the durable content, drains the line's WPQ snapshot (if any), or
// persists the dirty line's volatile content via a spontaneous eviction —
// the same fate space internal/fault enumerates, at the paper's 8-byte
// write atomicity, so a location spanning two chunks can land torn.
func (pl *plan) crashOutcomes(st *memState, set map[string]struct{}) {
	var opts [maxChunks][3]chunk
	var nOpts [maxChunks]int
	n := len(pl.chunks)
	for ci, bit := range pl.chunkBit {
		opts[ci][0] = st.dur[ci]
		nOpts[ci] = 1
		if st.wpqMask&bit != 0 && st.wpq[ci] != st.dur[ci] {
			opts[ci][nOpts[ci]] = st.wpq[ci]
			nOpts[ci]++
		}
		if st.dirty&bit != 0 {
			v := st.vol[ci]
			dup := false
			for k := 0; k < nOpts[ci]; k++ {
				if opts[ci][k] == v {
					dup = true
					break
				}
			}
			if !dup {
				opts[ci][nOpts[ci]] = v
				nOpts[ci]++
			}
		}
	}
	// Walk the fate product as an odometer; an outcome string is
	// allocated only when it is new to the set.
	var img [maxChunks]chunk
	var pick [maxChunks]int
	key := make([]byte, 0, 64)
	for {
		for ci := 0; ci < n; ci++ {
			img[ci] = opts[ci][pick[ci]]
		}
		key = pl.appendOutcome(key[:0], &img)
		if _, ok := set[string(key)]; !ok {
			set[string(key)] = struct{}{}
		}
		ci := n - 1
		for ; ci >= 0; ci-- {
			if pick[ci]++; pick[ci] < nOpts[ci] {
				break
			}
			pick[ci] = 0
		}
		if ci < 0 {
			return
		}
	}
}

// sortedOutcomes flattens an outcome set into its canonical sorted list.
func sortedOutcomes(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}
