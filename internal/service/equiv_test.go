package service

import (
	"reflect"
	"testing"
)

// TestSteppingEquivalenceGroupCommit runs the same group-commit scenario
// twice — once on the CPU's production fast scheduler, once on the
// reference stepping mode — and requires the entire Result to match:
// per-request latency histogram, queueing integrals, pcommit counts,
// everything. The service loop's batched stepping and the CPU scheduler
// rewrite must both be invisible at this level.
func TestSteppingEquivalenceGroupCommit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 2000
	cfg.BatchMax = 8
	cfg.BatchDeadline = 5000
	cfg.Requests = 300

	fast, err := Run(cfg)
	if err != nil {
		t.Fatalf("fast run: %v", err)
	}
	s, err := build(cfg)
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	for k := range s.shards {
		s.sim.Core(k).SetReferenceStepping(true)
	}
	ref, err := s.run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	if fast.Stats != ref.Stats {
		t.Errorf("service stats diverge:\nfast %+v\nref  %+v", fast.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(fast.Hist, ref.Hist) {
		t.Error("latency histograms diverge")
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Error("service results diverge beyond stats/histogram")
	}
	if fast.Stats.GroupedRequests == 0 {
		t.Fatal("scenario exercised no group commit; tighten the load parameters")
	}
}
