package litmus

import (
	"fmt"
	"math/rand"

	"specpersist/internal/mix"
)

// locShapes are the (off, size) pairs the generator draws locations from:
// aligned full-word slots, sub-word sizes, and one straddling an 8-byte
// chunk boundary (off 4, size 8) for torn mixed-size coverage.
var locShapes = [][2]int{{0, 8}, {8, 8}, {16, 4}, {24, 2}, {4, 8}, {33, 1}}

// FromBytes decodes a byte string into a small litmus program — the fuzz
// target's front end, also the seeded generator's back end. Bytes are
// consumed round-robin (wrapping), so any input of at least four bytes
// decodes to a valid program; ok is false only for shorter inputs.
func FromBytes(data []byte) (p Program, ok bool) {
	if len(data) < 4 {
		return Program{}, false
	}
	pos := 0
	next := func() int {
		b := data[pos%len(data)]
		pos++
		return int(b)
	}
	p.Name = "bytes"
	nLocs := 2 + next()%3
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < nLocs; i++ {
		shape := locShapes[next()%len(locShapes)]
		p.Locs = append(p.Locs, Loc{
			Name: names[i],
			Line: next() % 3,
			Off:  shape[0],
			Size: shape[1],
		})
	}
	nThreads := 2 + next()%3
	val := uint64(0)
	for t := 0; t < nThreads; t++ {
		nOps := 1 + next()%6
		var ops []Op
		for len(ops) < nOps {
			loc := names[next()%nLocs]
			switch r := next() % 16; {
			case r < 6:
				val++
				ops = append(ops, Op{Kind: OpStore, Loc: loc, Val: 1 + val%250})
			case r < 9:
				ops = append(ops, Op{Kind: OpClwb, Loc: loc})
			case r < 10:
				ops = append(ops, Op{Kind: OpClflushOpt, Loc: loc})
			case r < 12:
				ops = append(ops, Op{Kind: OpSfence})
			case r < 13:
				ops = append(ops, Op{Kind: OpPcommit})
			case r < 15:
				// Full persist barrier, the trio that opens a speculative
				// epoch on the SP machine.
				ops = append(ops, barrier()...)
			default:
				ops = append(ops, Op{Kind: OpLoad, Loc: loc})
			}
		}
		if len(ops) > MaxOpsPerThread {
			ops = ops[:MaxOpsPerThread]
		}
		p.Threads = append(p.Threads, ops)
	}
	if err := p.Validate(); err != nil {
		// Unreachable by construction; fail closed rather than handing the
		// explorers an unvalidated program.
		return Program{}, false
	}
	return p, true
}

// Generate returns the deterministic program for one campaign trial: a
// pure function of the seed, routed through the same decoder the fuzz
// target uses.
func Generate(seed int64) Program {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 64)
	rng.Read(data)
	p, ok := FromBytes(data)
	if !ok {
		panic("litmus: generator produced an undecodable byte string")
	}
	p.Name = fmt.Sprintf("gen-%d", seed)
	return p
}

// TrialSeed mixes the campaign seed with a trial index (SplitMix64),
// so trial programs are independent pure functions of (seed, i).
func TrialSeed(seed int64, i int) int64 {
	return int64(mix.SplitMix64(uint64(seed) + uint64(i)*0x9e3779b97f4a7c15))
}
