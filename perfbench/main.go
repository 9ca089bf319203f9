// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time from a seed, checks every simulated output, and
// prints one JSON result line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a separate traced run. run.py builds and drives it;
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart approximates the process start: the first set-up is timed
// from here.
var processStart = time.Now()

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// minPasses is the fewest timed passes a run makes (per half, traced).
	minPasses = 3
	// defaultSeed is the workload seed used to develop changes;
	// confirmSeed is kept for confirming claims.
	defaultSeed = 1
	confirmSeed = 2
)

// Workload sizes. Each pass of a workload takes a few seconds, so a run
// repeats it several times and reports medians.
var (
	gridScale     = 0.002
	defaultFleet  = fleetSize{requests: 3000, nominalRequests: 8000}
	defaultCrash  = crashSize{warmup: 30, ops: 1, samples: 1}
	defaultLitmus = litmusSize{perThreads: map[int]int{2: 60, 3: 60, 4: 120}, maxStates: 30000}
)

var workloadNames = []string{"paper-grid", "fleet", "crash-campaign", "litmus"}

func build(name string, seed int64) (*load, error) {
	switch name {
	case "paper-grid":
		return newPaperGrid(seed, gridScale), nil
	case "fleet":
		return newFleet(seed, defaultFleet), nil
	case "crash-campaign":
		return newCrashCampaign(seed, defaultCrash)
	case "litmus":
		return newLitmus(seed, defaultLitmus)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (%d while developing, %d to confirm a claim)", defaultSeed, confirmSeed))
	flag.Float64Var(&o.seconds, "seconds", 25, "how long the timed phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.outDir, "out-dir", ".bench_build", "where the traced run writes its CPU profile")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag))
	}
	o.trace = traceFlag == 1
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, info, err := run(o)
	if err != nil {
		fatal(err)
	}
	emit(info)
	emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run sets the workload up, times it, and returns the result and an info
// object with the simulated figures, digest and diagnostics.
func run(o options) (result, map[string]any, error) {
	var w *load
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		var err error
		if w, err = build(o.workload, o.seed); err != nil {
			return result{}, nil, err
		}
		for _, u := range w.warmup {
			if _, err := u.run(); err != nil {
				return result{}, nil, fmt.Errorf("warm-up %s: %w", u.name, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		runtime.GC()
	}

	plain := func() []unit { return w.units }
	var untraced, traced []pass
	var recs []record
	var shares map[string]float64
	var err error
	if !o.trace {
		if untraced, err = runPasses(plain, o.seconds, false); err != nil {
			return result{}, nil, err
		}
	} else {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return result{}, nil, err
		}
		profPath := filepath.Join(o.outDir, "profile-"+o.workload+".pprof")
		stop, err := startProfile(profPath)
		if err != nil {
			return result{}, nil, err
		}
		untraced, err = runPasses(plain, o.seconds/2, false)
		if perr := stop(); err == nil {
			err = perr
		}
		if err != nil {
			return result{}, nil, err
		}
		tracedUnits := func() []unit {
			rec := make(record)
			recs = append(recs, rec)
			return w.traced(rec)
		}
		if traced, err = runPasses(tracedUnits, o.seconds/2, true); err != nil {
			return result{}, nil, err
		}
		if shares, err = packageShares(profPath); err != nil {
			return result{}, nil, err
		}
	}

	// Every pass, traced or not, must simulate exactly the same thing.
	first := untraced[0]
	v := w.check(first.outs)
	var res result
	var cal []float64
	for _, p := range append(append([]pass(nil), untraced...), traced...) {
		cal = append(cal, p.calib)
		for _, out := range p.outs {
			res.Attempted += out.attempted
			res.Failed += out.failed
		}
		if p.digest != first.digest {
			v.bad = append(v.bad, fmt.Sprintf("pass digest %s differs from the first pass's %s", p.digest, first.digest))
		}
	}

	res.Correct = len(v.bad) == 0
	calib := median(cal)
	rss := peakRSSMB()
	rawRate := w.rate(first.outs, unitTimes(untraced, false))
	refRate := w.rate(first.outs, unitTimes(untraced, true))
	totals := make([]float64, len(untraced))
	for i, p := range untraced {
		totals[i] = p.total
	}
	info := map[string]any{
		"workload":         w.name,
		"seed":             o.seed,
		"trace":            o.trace,
		"digest":           first.digest,
		"setup_reps_s":     setups,
		"passes":           len(untraced),
		"pass_s":           totals,
		"host.calib_per_s": calib,
		w.rateName:         rawRate,
		"units_per_ref_s":  refRate,
		"peak_rss_mb":      rss,
		"counts":           v.counts,
		"sim":              v.sim,
	}
	if len(v.bad) > 0 {
		info["violations"] = firstN(v.bad, 20)
	}

	if !o.trace {
		res.Metrics = map[string]value{
			"setup_s":         {median(setups), "s"},
			"units_per_ref_s": {refRate, "1/s"},
		}
		return res, info, nil
	}

	tracedTotals := make([]float64, len(traced))
	gcs := make([]float64, len(traced))
	allocs := make([]float64, len(traced))
	for i, p := range traced {
		tracedTotals[i] = p.total
		gcs[i] = float64(p.gcs) / p.work
		allocs[i] = float64(p.alloc) / p.work
	}
	overhead := median(tracedTotals) - median(totals)
	info["traced_passes"] = len(traced)
	info["traced_pass_s"] = tracedTotals
	info["tracing_overhead_s"] = overhead
	info["tracing_overhead_frac"] = overhead / median(totals)

	layer := make(map[string]float64)
	for k, x := range v.sim {
		layer[k] = x
	}
	layer[w.rateName] = rawRate
	layer["host.calib_per_s"] = calib
	layer["peak_rss_mb"] = rss
	layer["tracing.overhead_s"] = overhead
	layer["gc.cycles_per_unit"] = median(gcs)
	layer["gc.alloc_bytes_per_unit"] = median(allocs)
	profileLayers(layer, shares)
	recordLayers(layer, medians(recs))
	res.Metrics = make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		res.Metrics[m.name] = value{layer[m.name], m.unit}
	}
	return res, info, nil
}

// runPasses repeats passes until the budget is spent, stopping early when
// half a pass would overrun it, after at least minPasses.
func runPasses(units func() []unit, budget float64, traced bool) ([]pass, error) {
	start := time.Now()
	var ps []pass
	before := calibBoundary()
	for len(ps) < minPasses || time.Since(start).Seconds()+ps[len(ps)-1].total/2 < budget {
		p, err := runPass(units(), traced)
		if err != nil {
			return nil, err
		}
		after := calibBoundary()
		p.calib = (before + after) / 2
		before = after
		ps = append(ps, p)
	}
	return ps, nil
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}
