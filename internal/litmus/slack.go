package litmus

import (
	"fmt"

	"specpersist/internal/isa"
)

// Store-buffer drain slack. A core's commit log pins its store order, its
// flush/pcommit order, and each line's store-flush interleaving — but NOT
// where a store's drain lands relative to other-line flushes and
// pcommits: the plain machine's store buffer drains lazily, so two
// equally correct runs (or the plain and SP machines) can log an
// unflushed store on opposite sides of a pcommit. Comparing raw outcome
// sets across that slack would flag timing, not semantics. The fair
// question — and the paper's actual invisibility theorem — is whether the
// SP machine ever exhibits a crash image outside the ENVELOPE of every
// drain placement a plain machine is allowed: stores drain FIFO, never
// before a program-earlier flush or pcommit committed, never after a
// same-line flush that program-follows them, and never past an sfence
// (the fence completes the store buffer before younger persist ops
// commit).

// slackThread is one thread's partial order: stores and persist ops each
// totally ordered, with cross constraints. storeMinJ[k] is the number of
// persist events that must commit before store k may drain; persistMinK[j]
// is the number of stores that must drain before persist event j may
// commit.
type slackThread struct {
	stores      []mevent
	storeMinJ   []int
	persists    []mevent
	persistMinK []int
}

// buildSlack derives each thread's drain partial order from the program.
func buildSlack(pl *plan) []slackThread {
	out := make([]slackThread, len(pl.p.Threads))
	for t, th := range pl.p.Threads {
		st := &out[t]
		lastSameLine := make(map[int]int) // dense line -> last store index + 1
		fenceBound := 0                   // stores retired before the latest sfence
		for _, op := range th {
			switch op.Kind {
			case OpStore:
				loc := pl.locIdx[op.Loc]
				li := pl.locLine[loc]
				st.stores = append(st.stores, mevent{op: isa.Store, line: li, loc: loc, val: op.Val})
				st.storeMinJ = append(st.storeMinJ, len(st.persists))
				lastSameLine[li] = len(st.stores)
			case OpClwb, OpClflushOpt:
				li := pl.opLine(op)
				minK := lastSameLine[li]
				if fenceBound > minK {
					minK = fenceBound
				}
				st.persists = append(st.persists, mevent{op: isa.Clwb, line: li})
				st.persistMinK = append(st.persistMinK, minK)
			case OpPcommit:
				st.persists = append(st.persists, mevent{op: isa.Pcommit, line: -1})
				st.persistMinK = append(st.persistMinK, fenceBound)
			case OpSfence:
				fenceBound = len(st.stores)
			}
		}
	}
	return out
}

// slackKey is one envelope-explorer state: the persistence state (as an
// interned memState id) plus each thread's progress through its persist
// sequence (j) and store drains (k).
type slackKey struct {
	mem  uint32
	j, k [MaxThreads]uint8
}

// slackOutcomes enumerates the crash-visible outcome envelope over every
// legal drain placement — the closure the raw per-mode sets are compared
// against when they differ. It is a superset of any single run's raw set
// and remains inside the reference-allowed set (a delayed drain only
// removes a volatile value a crash fate could drop anyway).
func slackOutcomes(pl *plan, maxStates int) (map[string]struct{}, int, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	threads := buildSlack(pl)
	set := make(map[string]struct{})
	visited := make(map[slackKey]struct{})
	mi := newMemInterner(pl, set)
	var start slackKey
	queue := []slackKey{start}
	visited[start] = struct{}{}
	// next is a copy of the key being expanded, so next.mem still names
	// the memory image the transition started from.
	push := func(next slackKey, m *memState) {
		next.mem = mi.intern(m, next.mem)
		if visit(visited, next) {
			queue = append(queue, next)
		}
	}
	for len(queue) > 0 {
		if len(visited) > maxStates {
			return nil, len(visited), fmt.Errorf("litmus: slack-envelope explorer exceeded %d states on %q: %w", maxStates, pl.p.Name, ErrStateCap)
		}
		s := queue[0]
		queue = queue[1:]
		mem := mi.tab[s.mem]
		for t := range threads {
			th := &threads[t]
			if k := int(s.k[t]); k < len(th.stores) && th.storeMinJ[k] <= int(s.j[t]) {
				e := th.stores[k]
				next, m := s, mem
				next.k[t]++
				pl.storeLoc(&m, e.loc, e.val)
				push(next, &m)
			}
			if j := int(s.j[t]); j < len(th.persists) && th.persistMinK[j] <= int(s.k[t]) {
				e := th.persists[j]
				next, m := s, mem
				next.j[t]++
				if e.op == isa.Pcommit {
					pl.drainWPQ(&m)
				} else {
					pl.flushLine(&m, e.line)
				}
				push(next, &m)
			}
		}
	}
	return set, len(visited), nil
}
