package litmus

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNegativeControl end-to-end: weakening the reference (dropping the
// sfence→pcommit ordering edge) must be detected by the curated corpus's
// golden contracts, the offending program must shrink to a small
// reproducer, and the reproducer must replay deterministically. This is
// the proof the harness has teeth — a reference bug cannot pass silently.
func TestNegativeControl(t *testing.T) {
	goldens, err := Goldens()
	if err != nil {
		t.Fatal(err)
	}
	var caught []Violation
	var victim Program
	for _, p := range Curated() {
		g := goldens[p.Name]
		vs, err := CheckGolden(p, g, Weakened(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) > 0 && victim.Name == "" {
			victim = p
			caught = vs
		}
	}
	if len(caught) == 0 {
		t.Fatal("weakened reference passed every curated golden check; negative control is broken")
	}
	t.Logf("weakened reference caught on %q: %v", victim.Name, caught[0])

	rep, calls := ShrinkViolation(victim, caught[0], true, 0, 0)
	if rep.Outcome == "" {
		t.Fatal("shrunk reproducer lost its witness outcome")
	}
	shrunkOps, origOps := 0, 0
	for _, th := range rep.Program.Threads {
		shrunkOps += len(th)
	}
	for _, th := range victim.Threads {
		origOps += len(th)
	}
	if shrunkOps >= origOps {
		t.Errorf("ddmin removed nothing: %d ops before, %d after (%d predicate calls)", origOps, shrunkOps, calls)
	}
	t.Logf("shrunk %q from %d to %d ops in %d predicate calls; witness %q",
		victim.Name, origOps, shrunkOps, calls, rep.Outcome)

	// The reproducer must survive a JSON round trip (the disk format the
	// campaign runner writes) and still replay as a violation.
	blob, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Reproducer
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	ok, vs, err := back.Replay(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("shrunk reproducer does not replay: %v", vs)
	}
}

// TestShrinkMinimal: the ddmin result must be 1-minimal — removing any
// single remaining op kills the violation.
func TestShrinkMinimal(t *testing.T) {
	goldens, err := Goldens()
	if err != nil {
		t.Fatal(err)
	}
	var victim Program
	var v Violation
	for _, p := range Curated() {
		vs, err := CheckGolden(p, goldens[p.Name], Weakened(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) > 0 {
			victim, v = p, vs[0]
			break
		}
	}
	if victim.Name == "" {
		t.Skip("no weakened violation to shrink")
	}
	rep, _ := ShrinkViolation(victim, v, true, 0, 0)
	var flat []flatOp
	for tid, th := range rep.Program.Threads {
		for _, op := range th {
			flat = append(flat, flatOp{t: tid, op: op})
		}
	}
	for drop := range flat {
		var kept []flatOp
		for i, f := range flat {
			if i != drop {
				kept = append(kept, f)
			}
		}
		cand := rebuild(rep.Program, kept)
		if firstWeakOnly(cand, 0) != "" {
			t.Errorf("not 1-minimal: still violates without op %d (%+v)", drop, flat[drop].op)
		}
	}
}

// TestCampaignDeterministic: a campaign's full JSON result must be
// byte-identical at any worker count, with or without a progress line —
// results are pure functions of (seed, index) and aggregation happens in
// trial order.
func TestCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{Curated: true, Programs: 20, Seed: 7}
	cfg.Workers = 1
	one, err := Campaign(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	var progress bytes.Buffer
	eight, err := Campaign(cfg, &progress)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(progress.String()), "\n"); len(lines) != 25 ||
		!strings.HasPrefix(lines[24], "litmus: [25/25] ") || !strings.Contains(lines[0], " programs/s eta ") {
		t.Errorf("progress lines:\n%s", progress.String())
	}
	a, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(eight)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("campaign JSON differs between -workers 1 and 8:\n%s\nvs\n%s", a, b)
	}
	if one.Violations != 0 {
		t.Errorf("strict campaign found %d violations in trials %v", one.Violations, one.BadTrials)
	}
	if one.ForcedRollbacks == 0 {
		t.Error("campaign forced no rollbacks")
	}
}

// TestCampaignWeakened: the weakened campaign must flag curated trials.
func TestCampaignWeakened(t *testing.T) {
	res, err := Campaign(CampaignConfig{Curated: true, Weaken: true, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("weakened campaign reported no violations")
	}
}
