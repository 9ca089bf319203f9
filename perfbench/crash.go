package main

import (
	"fmt"
	"math"

	"specpersist/internal/core"
	"specpersist/internal/fault"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
)

// crashSize shapes the crash campaign: warm-up operations populating each
// structure, operations probed per structure, and randomized (torn) fate
// sets per crash point besides the strict crash.
type crashSize struct {
	warmup, ops, samples int
}

// crashWarmup lists the structures whose campaigns warm the process up;
// their crash-point counts vary little with the seed.
var crashWarmup = map[string]bool{"GH": true, "HM": true, "LL": true, "SS": true}

// newCrashCampaign builds the crash-campaign workload: an exhaustive
// crash-point campaign with torn writes and re-crash under Log+P+Sf, one
// fault.Engine.Run per structure in pstruct.AllNames(), on one worker.
//
// Generating the input enumerates every structure's crash points without
// the engine: each probed operation runs to completion once, and its
// persistence-event count times the fate sets per point is the number of
// primary trials the engine must run.
func newCrashCampaign(seed int64, size crashSize) (*load, error) {
	w := &load{name: "crash-campaign", rateName: "trials_per_s", rate: crashRate}
	campaign := func(s string, rec record) unit {
		return unit{name: s, run: func() (outcome, error) {
			e := &fault.Engine{Workers: 1, Samples: size.samples, Torn: true, Recrash: true}
			reg := obs.NewRegistry()
			e.Register(reg)
			var rep fault.Report
			var err error
			span := timeIt(func() {
				rep, err = e.Run(fault.Campaign{
					Structures: []string{s}, Variant: core.VariantLogPSf, Seed: seed,
					Warmup: size.warmup, Ops: size.ops, Exhaustive: true,
				})
			})
			if err != nil {
				return outcome{}, err
			}
			if rec != nil {
				rec.add("fault."+s+".host_s", span)
			}
			o := outcome{work: float64(rep.Trials), attempted: rep.Trials, failed: rep.Violations, sim: rep}
			if rep.Violations > 0 {
				o.bad = append(o.bad, fmt.Sprintf("crash-campaign %s: %d violations in %d trials", s, rep.Violations, rep.Trials))
			}
			if got := reg.Snapshot()["fault.trials"]; got != uint64(rep.Trials) {
				o.bad = append(o.bad, fmt.Sprintf("crash-campaign %s: engine counted %d trials, report says %d", s, got, rep.Trials))
			}
			return o, nil
		}}
	}
	expect := make(map[string]int)
	for _, s := range pstruct.AllNames() {
		events := 0
		for op := 0; op < size.ops; op++ {
			p := fault.DefaultPlan(s, core.VariantLogPSf, seed)
			p.Warmup, p.Op, p.CrashIndex = size.warmup, op, math.MaxInt32
			out, err := fault.Run(p)
			if err != nil {
				return nil, fmt.Errorf("crash-campaign: counting %s op %d: %w", s, op, err)
			}
			events += out.Events
		}
		expect[s] = events * (size.samples + 1)
		w.units = append(w.units, campaign(s, nil))
		if crashWarmup[s] {
			w.warmup = append(w.warmup, w.units[len(w.units)-1])
		}
	}
	w.check = func(outs []outcome) verdict { return checkCrash(outs, expect) }
	w.traced = func(rec record) []unit {
		var units []unit
		for _, u := range w.units {
			units = append(units, campaign(u.name, rec))
		}
		return units
	}
	return w, nil
}

// crashRate is trials per second with every structure weighted alike: the
// seed decides how many crash points each structure's probed operation has,
// so a plain total would mostly measure the seed's structure mix.
func crashRate(outs []outcome, times []float64) float64 {
	var perTrial float64
	for i, o := range outs {
		perTrial += times[i] / o.work
	}
	return float64(len(outs)) / perTrial
}

// checkCrash matches every structure's primary trial count against the
// enumerated count and totals the campaign.
func checkCrash(outs []outcome, expect map[string]int) verdict {
	v := verdict{sim: make(map[string]float64), counts: make(map[string]any)}
	var trials, recrash, violations int
	var torn uint64
	for _, o := range outs {
		v.bad = append(v.bad, o.bad...)
		rep := o.sim.(fault.Report)
		if len(rep.Structures) != 1 {
			v.bad = append(v.bad, fmt.Sprintf("crash-campaign: report covers %d structures, want 1", len(rep.Structures)))
			continue
		}
		sr := rep.Structures[0]
		if primary := sr.Trials - sr.RecrashTrials; primary != expect[sr.Structure] {
			v.bad = append(v.bad, fmt.Sprintf("crash-campaign %s: %d primary trials, enumerated %d", sr.Structure, primary, expect[sr.Structure]))
		}
		v.sim["fault."+sr.Structure+".trials"] = float64(sr.Trials)
		trials += sr.Trials
		recrash += sr.RecrashTrials
		torn += sr.TornLines
		violations += sr.Violations
	}
	v.sim["fault.trials"] = float64(trials)
	v.sim["fault.recrash_trials"] = float64(recrash)
	v.sim["fault.torn_lines"] = float64(torn)
	v.counts["trials"] = trials
	v.counts["violations"] = violations
	return v
}
