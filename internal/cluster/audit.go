// End-of-run invariant auditor: the checker half of the chaos fabric.
// Where check() treats an invariant breach as a fatal engine error, the
// audit classifies breaches as Violations and returns them in the
// Result, so chaos campaigns can count, report and delta-minimize them —
// including the deliberately broken-dedup negative control, which must
// surface here rather than crash the run.
package cluster

import "fmt"

// MaxViolations bounds how many violations one audit keeps in detail;
// Total always counts all of them.
const MaxViolations = 32

// Violation is one invariant breach found by the end-of-run audit.
type Violation struct {
	// Kind: "lost-ack" (an acknowledged update is absent from an acker's
	// durable image), "double-apply" (one sequence durably applied twice
	// on one node), "order" (a node's durable log is not monotonic in
	// sequence within a range), or "structure" (a node's persistent
	// structure failed its invariant check).
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	Rid    int    `json:"rid"`
	Seq    uint64 `json:"seq,omitempty"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at node %d range %d seq %d: %s", v.Kind, v.Node, v.Rid, v.Seq, v.Detail)
}

// Audit is the checker's report for one run.
type Audit struct {
	// Checked counts the quorum-acknowledged updates audited for
	// durability (each against every owner whose ack was counted).
	Checked int `json:"checked"`
	// Total counts all violations found; Violations keeps the first
	// MaxViolations in detail.
	Total      int         `json:"total_violations"`
	Violations []Violation `json:"violations,omitempty"`
}

// Clean reports a violation-free run.
func (a *Audit) Clean() bool { return a.Total == 0 }

func (s *fleet) violation(v Violation) {
	s.auditRep.Total++
	if len(s.auditRep.Violations) < MaxViolations {
		s.auditRep.Violations = append(s.auditRep.Violations, v)
	}
}

// audit runs the three chaos invariants over the finished fleet:
//
//  1. No lost ack: every quorum-acknowledged update is in the durable
//     in-order image of every node whose ack completed it (a superset of
//     the read-quorum property: if each acker holds it, any read quorum
//     intersecting the write quorum sees it). Crashed nodes are audited
//     too — their durable image survived the crash by definition.
//  2. Idempotency: no (range, sequence) is durably applied twice on one
//     node, however many duplicates, retries and hedges the network and
//     client machinery produced.
//  3. Order: each node's durable log is strictly monotonic in sequence
//     within each range — primary handoffs may interleave ranges, but
//     never reorder one range's updates.
//
// Structure invariants are re-classified as violations here (a broken
// dedup corrupts state through a perfectly healthy engine).
func (s *fleet) audit() Audit {
	s.auditRep = Audit{Checked: len(s.completed)}
	for _, rec := range s.completed {
		for _, a := range rec.ackedBy {
			if s.nodes[a].appliedDur[rec.rid] <= rec.seq {
				s.violation(Violation{
					Kind: "lost-ack", Node: a, Rid: rec.rid, Seq: rec.seq,
					Detail: fmt.Sprintf("acked but durable prefix holds only %d", s.nodes[a].appliedDur[rec.rid]),
				})
			}
		}
	}
	type rs struct {
		rid int
		seq uint64
	}
	for _, n := range s.nodes {
		seen := make(map[rs]bool, len(n.durableOps))
		last := map[int]uint64{} // per range: 1 + highest seq applied so far
		for _, op := range n.durableOps {
			k := rs{op.rid, op.seq}
			switch {
			case seen[k]:
				s.violation(Violation{
					Kind: "double-apply", Node: n.idx, Rid: op.rid, Seq: op.seq,
					Detail: "sequence durably applied twice (dedup broken)",
				})
			case op.seq+1 < last[op.rid]:
				s.violation(Violation{
					Kind: "order", Node: n.idx, Rid: op.rid, Seq: op.seq,
					Detail: fmt.Sprintf("durable log regressed below %d", last[op.rid]-1),
				})
			default:
				last[op.rid] = op.seq + 1
			}
			seen[k] = true
		}
		if n.state != stateCrashed {
			if err := n.lane.Be.St.Check(); err != nil {
				s.violation(Violation{
					Kind: "structure", Node: n.idx,
					Detail: err.Error(),
				})
			}
		}
	}
	return s.auditRep
}
