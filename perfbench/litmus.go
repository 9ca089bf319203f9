package main

import (
	"errors"
	"fmt"

	"specpersist/internal/litmus"
)

// litmusSize shapes the litmus workload: how many generated programs of
// each thread count one pass checks, and the explorers' state budget.
type litmusSize struct {
	perThreads map[int]int // thread count -> programs
	maxStates  int
}

// litmusWarmup is how many generated programs follow the curated corpus in
// the warm-up.
const litmusWarmup = 25

// litmusScanLimit bounds the generated-program scan that fills the quotas.
const litmusScanLimit = 1 << 16

// newLitmus builds the litmus workload: the curated corpus (golden-checked)
// plus generated programs, each checked exactly as litmus.Campaign checks
// a trial, on one worker. The generated programs are the campaign's trial
// programs for the seed, taken in trial order until each thread-count
// quota is full, so every seed checks the same mix of program sizes.
func newLitmus(seed int64, size litmusSize) (*load, error) {
	goldens, err := litmus.Goldens()
	if err != nil {
		return nil, err
	}
	curated := litmus.Curated()
	progs := append([]litmus.Program(nil), curated...)
	// TrialProgram fails past litmusScanLimit, which bounds the scan.
	cfg := litmus.CampaignConfig{Curated: true, Programs: litmusScanLimit, Seed: seed}
	left := make(map[int]int)
	need := 0
	for t, n := range size.perThreads {
		left[t] = n
		need += n
	}
	for i := len(curated); need > 0; i++ {
		p, err := litmus.TrialProgram(cfg, i)
		if err != nil {
			return nil, err
		}
		if left[len(p.Threads)] > 0 {
			left[len(p.Threads)]--
			need--
			progs = append(progs, p)
		}
	}

	w := &load{name: "litmus", rateName: "programs_per_s", rate: workRate}
	check := func(p litmus.Program, isCurated bool, rec record) unit {
		return unit{name: p.Name, run: func() (outcome, error) {
			tr := litmus.TrialResult{Name: p.Name, Curated: isCurated}
			var golden, enum float64 // reference time: golden check, standalone enumeration
			if isCurated {
				g, ok := goldens[p.Name]
				if !ok {
					return outcome{}, fmt.Errorf("curated test %q has no golden file", p.Name)
				}
				var gvs []litmus.Violation
				var err error
				golden = timeIt(func() { gvs, err = litmus.CheckGolden(p, g, litmus.Strict(), size.maxStates) })
				if err != nil {
					return outcome{}, err
				}
				tr.Violations = append(tr.Violations, gvs...)
			}
			if rec != nil {
				// The reference alone: Check enumerates it once too, so the
				// rest of Check's time is the machine's.
				var err error
				enum = timeIt(func() { _, _, err = litmus.Strict().Enumerate(&p, size.maxStates) })
				if err != nil && !errors.Is(err, litmus.ErrStateCap) {
					return outcome{}, err
				}
			}
			var res litmus.Result
			var err error
			checkTime := timeIt(func() { res, err = litmus.Check(p, litmus.Config{MaxStates: size.maxStates}) })
			switch {
			case errors.Is(err, litmus.ErrStateCap):
				tr.Capped = true
			case err != nil:
				return outcome{}, fmt.Errorf("%s: %w", p.Name, err)
			default:
				tr.Allowed = len(res.Allowed)
				tr.RefStates = res.RefStates
				tr.Modes = len(res.Modes)
				for _, m := range res.Modes {
					if m.Mode.Name == "plain" {
						tr.Observed = len(m.Outcomes)
					}
					tr.Rollbacks += m.Rollbacks
					tr.ForcedRollbacks += m.ForcedRollbacks
					tr.NackDeferred += m.NackDeferred
				}
				tr.Violations = append(tr.Violations, res.Violations...)
			}
			if rec != nil {
				rec.add("litmus.ref.host_s", golden+enum)
				rec.add("litmus.machine.host_s", max(checkTime-enum, 0))
			}
			o := outcome{work: 1, attempted: 1, sim: tr}
			if len(tr.Violations) > 0 {
				o.failed = 1
				for _, v := range tr.Violations {
					o.bad = append(o.bad, fmt.Sprintf("litmus %s: %s", p.Name, v))
				}
			}
			return o, nil
		}}
	}
	for i, p := range progs {
		w.units = append(w.units, check(p, i < len(curated), nil))
	}
	w.warmup = w.units[:min(len(w.units), len(curated)+litmusWarmup)]
	w.check = checkLitmus
	w.traced = func(rec record) []unit {
		var units []unit
		for i, p := range progs {
			units = append(units, check(p, i < len(curated), rec))
		}
		return units
	}
	return w, nil
}

// checkLitmus totals one pass; capped programs proved nothing and are
// counted apart from violations.
func checkLitmus(outs []outcome) verdict {
	v := verdict{sim: make(map[string]float64), counts: make(map[string]any)}
	var capped, violations, states, checked int
	var rollbacks uint64
	for _, o := range outs {
		v.bad = append(v.bad, o.bad...)
		tr := o.sim.(litmus.TrialResult)
		violations += len(tr.Violations)
		rollbacks += tr.Rollbacks
		if tr.Capped {
			capped++
			continue
		}
		checked++
		states += tr.RefStates
	}
	v.sim["litmus.capped_frac"] = float64(capped) / float64(len(outs))
	if checked > 0 {
		v.sim["litmus.ref_states_per_program"] = float64(states) / float64(checked)
	}
	v.sim["litmus.rollbacks"] = float64(rollbacks)
	v.counts["programs"] = len(outs)
	v.counts["capped"] = capped
	v.counts["violations"] = violations
	return v
}
