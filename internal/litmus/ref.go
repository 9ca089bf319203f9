package litmus

import (
	"errors"
	"fmt"
)

// ErrStateCap marks a state-budget overflow in either explorer. Campaigns
// count capped trials explicitly (never silently truncating coverage) and
// carry on; everything else treats it as a harness error.
var ErrStateCap = errors.New("state cap exceeded")

// Semantics selects the reference memory model. The zero value is the
// deliberately broken model used as a negative control; use Strict() for
// the real Px86-with-persist-buffers semantics.
type Semantics struct {
	// SfenceOrdersFlushes gives sfence its persist-ordering edge: every
	// flush this thread issued must complete (reach the controller WPQ)
	// before the thread proceeds past the fence — the edge that makes the
	// sfence; pcommit; sfence trio a persist barrier. Dropping it is the
	// negative-control weakening: a later pcommit may then drain the WPQ
	// before the flush lands, so "flushed before the barrier" no longer
	// implies durable, and forbidden outcomes of the curated tests become
	// reachable.
	SfenceOrdersFlushes bool
}

// Strict returns the real reference semantics.
func Strict() Semantics { return Semantics{SfenceOrdersFlushes: true} }

// Weakened returns the negative-control semantics (no sfence→pcommit
// ordering edge).
func Weakened() Semantics { return Semantics{} }

func (s Semantics) String() string {
	if s.SfenceOrdersFlushes {
		return "strict"
	}
	return "weakened"
}

// DefaultMaxStates bounds every explorer's interleaving state space. The
// caps in Validate keep most programs far below it, but a few exceed it
// (20 of the 5,000 generated in the seed-1 campaign); hitting the
// bound returns ErrStateCap, which campaigns count as capped, never a
// panic. The explorers intern memStates, so a visited entry is a key of
// at most 16 bytes rather than a 196-byte image, which is what makes a
// budget this size affordable.
const DefaultMaxStates = 1_000_000

// refKey is one explored interpreter state: the persistence state (as an
// interned memState id — the 196-byte images repeat heavily across
// control states, so the BFS keys and queues 16-byte records) plus each
// thread's program counter, the number of its stores drained from the
// store buffer, and the set of lines with issued but not yet completed
// flushes. The store buffer's contents need no explicit field — they are
// exactly the program's stores with ordinal in [drained, executed).
type refKey struct {
	mem     uint32
	pc      [MaxThreads]uint8
	drained [MaxThreads]uint8 // per-thread count of store-buffer drains
	pending [MaxThreads]uint8 // per-thread line mask of in-flight flushes
}

// refStore is one program store as seen by the drain transition.
type refStore struct {
	loc int
	val uint64
}

// refThread is a thread's store-buffer ordering metadata: storesBefore[i]
// counts the stores among ops[0:i] (so storesBefore[pc] is how many have
// EXECUTED), needDrain[i] is how many of them must have DRAINED before
// op i may step — the last same-line store's ordinal for a flush (clwb is
// ordered only against older stores to its own line), every executed
// store for an sfence (the fence completes the store buffer), zero
// otherwise. lineBit[i] is a flush op's target line mask bit.
type refThread struct {
	stores       []refStore
	storesBefore []int
	needDrain    []int
	lineBit      []uint8
}

// memInterner maps memStates to dense ids so explorer keys and queues
// hold 4 bytes instead of a 196-byte image (which repeats across most
// control states). Crash outcomes are a pure function of the memState,
// so they are collected exactly once per distinct image — at intern
// time, which covers every reachable state.
type memInterner struct {
	tab []memState
	ids map[memState]uint32
	pl  *plan
	set map[string]struct{}
}

func newMemInterner(pl *plan, set map[string]struct{}) *memInterner {
	mi := &memInterner{tab: make([]memState, 1, 64), ids: make(map[memState]uint32, 64), pl: pl, set: set}
	mi.ids[mi.tab[0]] = 0
	pl.crashOutcomes(&mi.tab[0], set)
	return mi
}

// intern returns m's id, collecting its crash outcomes the first time the
// image is seen. from is the id of the state being expanded: many
// transitions leave memory as it was (a store retiring into the buffer, a
// load, a nop, a clean-line flush, a pcommit with an empty WPQ), and an
// image equal to from's is returned without hashing.
func (mi *memInterner) intern(m *memState, from uint32) uint32 {
	if *m == mi.tab[from] {
		return from
	}
	if id, ok := mi.ids[*m]; ok {
		return id
	}
	id := uint32(len(mi.tab))
	mi.tab = append(mi.tab, *m)
	mi.ids[*m] = id
	mi.pl.crashOutcomes(m, mi.set)
	return id
}

// visit adds k to an explorer's visited set and reports whether it was
// new, hashing the key once.
func visit[K comparable](visited map[K]struct{}, k K) bool {
	n := len(visited)
	visited[k] = struct{}{}
	return len(visited) > n
}

func buildRefThreads(pl *plan) []refThread {
	out := make([]refThread, len(pl.p.Threads))
	for t, ops := range pl.p.Threads {
		th := &out[t]
		th.storesBefore = make([]int, len(ops)+1)
		th.needDrain = make([]int, len(ops))
		th.lineBit = make([]uint8, len(ops))
		lastSameLine := make(map[int]int) // dense line -> last store ordinal + 1
		for i, op := range ops {
			th.storesBefore[i] = len(th.stores)
			switch op.Kind {
			case OpStore:
				li := pl.opLine(op)
				th.stores = append(th.stores, refStore{loc: pl.locIdx[op.Loc], val: op.Val})
				lastSameLine[li] = len(th.stores)
			case OpClwb, OpClflushOpt:
				li := pl.opLine(op)
				th.lineBit[i] = 1 << li
				th.needDrain[i] = lastSameLine[li]
			case OpSfence:
				th.needDrain[i] = len(th.stores)
			}
		}
		th.storesBefore[len(ops)] = len(th.stores)
	}
	return out
}

// Enumerate computes the complete allowed crash-visible outcome set of a
// program under the reference semantics: a breadth-first enumeration of
// every interleaving of thread steps and asynchronous flush completions,
// collecting the crash outcomes of every reachable state. The model is
// the executable form of Px86 with persist buffers specialized to this
// simulator's pmem rules:
//
//   - stores RETIRE in program order into a per-thread store buffer and
//     DRAIN to the shared volatile view lazily, FIFO — x86-TSO. The
//     drain slack is observable: a younger flush to a different line may
//     snapshot before an older buffered store lands;
//   - clwb/clflushopt are ordered only against older stores to their OWN
//     line (those must drain first); they ISSUE at their program point
//     but COMPLETE asynchronously: the line snapshot reaches the WPQ at
//     any later interleaving point (or never, if the crash comes first);
//   - sfence completes the thread's store buffer, and (strict semantics)
//     forces its in-flight flushes to complete before later ops;
//   - pcommit atomically drains every WPQ snapshot to durable NVM;
//   - a crash can strike between any two transitions, and per 8-byte
//     chunk independently keeps the durable image, drains the WPQ
//     snapshot, or persists a dirty line via spontaneous eviction.
//
// maxStates <= 0 means DefaultMaxStates. Returns the outcome set, the
// number of interpreter states explored, and an error if the state cap
// was exceeded.
func (s Semantics) Enumerate(p *Program, maxStates int) (map[string]struct{}, int, error) {
	pl, err := compile(p)
	if err != nil {
		return nil, 0, err
	}
	return s.enumerate(pl, maxStates)
}

func (s Semantics) enumerate(pl *plan, maxStates int) (map[string]struct{}, int, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	threads := buildRefThreads(pl)
	set := make(map[string]struct{})
	visited := make(map[refKey]struct{})
	mi := newMemInterner(pl, set)

	var start refKey
	queue := []refKey{start}
	visited[start] = struct{}{}
	// next is a copy of the key being expanded, so next.mem still names
	// the memory image the transition started from.
	push := func(next refKey, m *memState) {
		next.mem = mi.intern(m, next.mem)
		if visit(visited, next) {
			queue = append(queue, next)
		}
	}
	for len(queue) > 0 {
		if len(visited) > maxStates {
			return nil, len(visited), fmt.Errorf("litmus: reference explorer exceeded %d states on %q: %w", maxStates, pl.p.Name, ErrStateCap)
		}
		k := queue[0]
		queue = queue[1:]
		mem := mi.tab[k.mem]
		for t := range pl.p.Threads {
			th := &threads[t]
			// Asynchronous flush completions: any single in-flight flush
			// may land now.
			for li := 0; li < len(pl.lines); li++ {
				bit := uint8(1) << li
				if k.pending[t]&bit == 0 {
					continue
				}
				next, m := k, mem
				pl.flushLine(&m, li)
				next.pending[t] &^= bit
				push(next, &m)
			}
			// Store-buffer drain: the thread's oldest buffered store may
			// become globally visible now. (Crashes lose the buffer — a
			// state's crash outcomes see only drained stores.)
			if d := int(k.drained[t]); d < th.storesBefore[k.pc[t]] {
				next, m := k, mem
				pl.storeLoc(&m, th.stores[d].loc, th.stores[d].val)
				next.drained[t]++
				push(next, &m)
			}
			// Program step, gated on the op's drain requirement (same-line
			// stores for a flush, the whole buffer for an sfence).
			ops := pl.p.Threads[t]
			if int(k.pc[t]) >= len(ops) {
				continue
			}
			if th.needDrain[k.pc[t]] > int(k.drained[t]) {
				continue
			}
			op := ops[k.pc[t]]
			next, m := k, mem
			next.pc[t]++
			switch op.Kind {
			case OpStore:
				// Retires into the store buffer; visibility comes from the
				// drain transition above.
			case OpClwb, OpClflushOpt:
				next.pending[t] |= th.lineBit[k.pc[t]]
			case OpSfence:
				if s.SfenceOrdersFlushes {
					for li := 0; li < len(pl.lines); li++ {
						if next.pending[t]&(1<<li) != 0 {
							pl.flushLine(&m, li)
						}
					}
					next.pending[t] = 0
				}
			case OpPcommit:
				pl.drainWPQ(&m)
			case OpLoad, OpNop:
				// No persistence effect.
			}
			push(next, &m)
		}
	}
	return set, len(visited), nil
}
