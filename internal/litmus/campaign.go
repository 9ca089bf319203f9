package litmus

import (
	"errors"
	"fmt"
	"io"
	"time"

	"specpersist/internal/sweep"
)

// CampaignConfig plans a campaign: the curated corpus (optionally checked
// against its golden files) plus Programs seeded generated programs, each
// run through the full Check (reference enumeration + every machine
// mode). Trials are pure functions of (Seed, index), so the campaign is
// byte-deterministic at any worker count.
type CampaignConfig struct {
	Curated  bool  `json:"curated"`
	Programs int   `json:"programs"`
	Seed     int64 `json:"seed"`
	// Workers is an execution detail, not part of the result: campaign
	// output is byte-identical at any worker count, so it is excluded from
	// the JSON document.
	Workers int `json:"-"`
	// Weaken swaps in the intentionally broken reference semantics (no
	// sfence→pcommit edge): the negative control. Curated golden checks
	// must then report violations.
	Weaken    bool `json:"weaken,omitempty"`
	MaxStates int  `json:"max_states,omitempty"`
}

// TrialResult summarizes one checked program.
type TrialResult struct {
	Name    string `json:"name"`
	Curated bool   `json:"curated,omitempty"`
	// Capped: the trial's state space overflowed MaxStates, so it proved
	// nothing. Deterministic for a given config; counted, never hidden.
	Capped          bool        `json:"capped,omitempty"`
	Allowed         int         `json:"allowed"`
	Observed        int         `json:"observed"` // plain-machine outcomes
	Modes           int         `json:"modes"`
	RefStates       int         `json:"ref_states"`
	Rollbacks       uint64      `json:"rollbacks"`
	ForcedRollbacks int         `json:"forced_rollbacks"`
	NackDeferred    int         `json:"nack_deferred"`
	Violations      []Violation `json:"violations,omitempty"`
}

// CampaignResult aggregates a whole campaign. Everything in it is a pure
// function of the config, independent of Workers.
type CampaignResult struct {
	Config     CampaignConfig `json:"config"`
	Trials     []TrialResult  `json:"trials"`
	Curated    int            `json:"curated"`
	Generated  int            `json:"generated"`
	Capped     int            `json:"capped"` // trials skipped on state-cap overflow
	Violations int            `json:"violations"`
	BadTrials  []int          `json:"bad_trials,omitempty"` // indices into Trials

	Allowed         uint64 `json:"allowed_outcomes"`
	Observed        uint64 `json:"observed_outcomes"`
	RefStates       uint64 `json:"ref_states"`
	ModeRuns        uint64 `json:"mode_runs"`
	Rollbacks       uint64 `json:"rollbacks"`
	ForcedRollbacks uint64 `json:"forced_rollbacks"`
	NackDeferred    uint64 `json:"nack_deferred"`
}

// TrialProgram returns the program of campaign trial i under cfg — the
// curated corpus first (when enabled), then the generated programs.
// Replays and shrinking re-derive programs through this, never by
// trusting a result file.
func TrialProgram(cfg CampaignConfig, i int) (Program, error) {
	cur := 0
	if cfg.Curated {
		cur = len(Curated())
	}
	if i < cur {
		return Curated()[i], nil
	}
	if i-cur >= cfg.Programs {
		return Program{}, fmt.Errorf("litmus: trial %d out of range (campaign has %d)", i, cur+cfg.Programs)
	}
	p := Generate(TrialSeed(cfg.Seed, i-cur))
	p.Name = fmt.Sprintf("gen-%d", i-cur)
	return p, nil
}

// Campaign checks every trial on a sweep worker pool and aggregates in
// trial order. An error means a harness failure in some trial; contract
// breaches are counted, kept in each trial's Violations, and left to the
// caller's exit-status policy. A non-nil progress receives the sweep
// engine's per-item progress line for every finished trial; the result
// does not depend on it.
func Campaign(cfg CampaignConfig, progress io.Writer) (CampaignResult, error) {
	nCur := 0
	if cfg.Curated {
		nCur = len(Curated())
	}
	total := nCur + cfg.Programs
	res := CampaignResult{Config: cfg, Curated: nCur, Generated: cfg.Programs}
	if total == 0 {
		return res, fmt.Errorf("litmus: empty campaign (no curated corpus, no generated programs)")
	}
	goldens, err := Goldens()
	if err != nil {
		return res, err
	}
	trials := make([]TrialResult, total)
	prog := sweep.NewProgress(progress, "litmus", "programs", total)
	err = sweep.Pool(cfg.Workers, total, func(i int) error {
		p, err := TrialProgram(cfg, i)
		if err != nil {
			return err
		}
		start := time.Now()
		sem := Strict()
		if cfg.Weaken {
			sem = Weakened()
		}
		tr := TrialResult{Name: p.Name, Curated: i < nCur}
		if i < nCur {
			g, ok := goldens[p.Name]
			if !ok {
				return fmt.Errorf("litmus: curated test %q has no golden file", p.Name)
			}
			gvs, err := CheckGolden(p, g, sem, cfg.MaxStates)
			if err != nil {
				return err
			}
			tr.Violations = append(tr.Violations, gvs...)
		}
		cres, err := Check(p, Config{Weaken: cfg.Weaken, MaxStates: cfg.MaxStates})
		if errors.Is(err, ErrStateCap) {
			// Too big to enumerate: record it as capped (curated tests never
			// are — their goldens already ran above) and move on.
			tr.Capped = true
			trials[i] = tr
			prog.Done(p.Name, time.Since(start), "capped")
			return nil
		}
		if err != nil {
			return fmt.Errorf("trial %d (%s): %w", i, p.Name, err)
		}
		tr.Allowed = len(cres.Allowed)
		tr.RefStates = cres.RefStates
		tr.Modes = len(cres.Modes)
		for _, m := range cres.Modes {
			if m.Mode.Name == "plain" {
				tr.Observed = len(m.Outcomes)
			}
			tr.Rollbacks += m.Rollbacks
			tr.ForcedRollbacks += m.ForcedRollbacks
			tr.NackDeferred += m.NackDeferred
		}
		tr.Violations = append(tr.Violations, cres.Violations...)
		trials[i] = tr
		prog.Done(p.Name, time.Since(start), "")
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Trials = trials
	for i, tr := range trials {
		if tr.Capped {
			res.Capped++
		}
		res.Allowed += uint64(tr.Allowed)
		res.Observed += uint64(tr.Observed)
		res.RefStates += uint64(tr.RefStates)
		res.ModeRuns += uint64(tr.Modes)
		res.Rollbacks += tr.Rollbacks
		res.ForcedRollbacks += uint64(tr.ForcedRollbacks)
		res.NackDeferred += uint64(tr.NackDeferred)
		if len(tr.Violations) > 0 {
			res.Violations += len(tr.Violations)
			res.BadTrials = append(res.BadTrials, i)
		}
	}
	return res, nil
}
