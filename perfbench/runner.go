package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// unit is one timed call into the program under test: a paper-grid cell, a
// fleet ladder rung, one structure's crash campaign or one litmus program.
type unit struct {
	name string
	run  func() (outcome, error)
}

// outcome is what one unit did. A returned error is a harness failure that
// aborts the run; a wrong answer from the program is a violation in bad.
type outcome struct {
	work      float64 // work items done: instructions, requests, trials or programs
	attempted int     // operations the unit attempted
	failed    int     // operations that failed (errors, drops, violations)
	bad       []string
	sim       any // simulated output, hashed into the pass digest
}

// load is one named benchmark workload, generated from a seed.
type load struct {
	name     string
	rateName string // the workload's named host rate, e.g. "sim_instrs_per_s"
	units    []unit // one pass, in order
	// warmup runs untimed at the end of every set-up.
	warmup []unit
	// check validates one pass's outcomes (indexed like units) and derives
	// its simulated metrics; it reports contract breaches in verdict.bad.
	check func(outs []outcome) verdict
	// traced returns the traced twin of one pass. Its units must produce
	// the same outcomes as units, and record host-time figures into rec.
	traced func(rec record) []unit
	// rate turns one pass's outcomes and per-unit times into the
	// workload's throughput.
	rate func(outs []outcome, times []float64) float64
}

// verdict is the checked summary of one pass. Everything in it is
// simulated, so it repeats exactly for a given seed.
type verdict struct {
	bad    []string
	sim    map[string]float64 // simulated per-layer and headline metrics
	counts map[string]any     // sample counts and other facts worth printing
}

// pass is one timed pass over a workload's units.
type pass struct {
	outs   []outcome
	times  []float64 // seconds per unit
	total  float64
	work   float64
	digest string
	gcs    uint64  // GC cycles during the pass (traced passes only)
	alloc  uint64  // bytes allocated during the pass (traced passes only)
	calib  float64 // host calibration rate around the pass
}

// refCalib is the calibration rate of the reference host, in loop
// iterations per second. Host times scaled to it read as seconds on a host
// whose calibration loop runs at this speed.
const refCalib = 4e8

// unitTimes returns every unit's median time across passes. With scaled set,
// each pass's times are first converted to reference-host seconds using the
// calibration samples taken around that pass.
func unitTimes(ps []pass, scaled bool) []float64 {
	out := make([]float64, len(ps[0].times))
	for i := range out {
		ts := make([]float64, len(ps))
		for j, p := range ps {
			ts[j] = p.times[i]
			if scaled {
				ts[j] *= p.calib / refCalib
			}
		}
		out[i] = median(ts)
	}
	return out
}

// workRate is work per second over one pass whose units took times.
func workRate(outs []outcome, times []float64) float64 {
	var work, total float64
	for i, o := range outs {
		work += o.work
		total += times[i]
	}
	return work / total
}

// runPass runs every unit once, timing each call. The garbage of one pass is
// collected before the next starts, off the clock.
func runPass(units []unit, traced bool) (pass, error) {
	p := pass{outs: make([]outcome, len(units)), times: make([]float64, len(units))}
	var before gcSample
	if traced {
		before = readGC()
	}
	for i, u := range units {
		start := time.Now()
		o, err := u.run()
		p.times[i] = time.Since(start).Seconds()
		if err != nil {
			return pass{}, fmt.Errorf("%s: %w", u.name, err)
		}
		p.outs[i] = o
		p.total += p.times[i]
		p.work += o.work
	}
	if traced {
		after := readGC()
		p.gcs, p.alloc = after.cycles-before.cycles, after.allocBytes-before.allocBytes
	}
	runtime.GC()
	p.digest = digest(p.outs)
	return p, nil
}

// digest hashes every unit's simulated output in pass order.
func digest(outs []outcome) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, o := range outs {
		if err := enc.Encode(o.sim); err != nil {
			panic(fmt.Sprintf("perfbench: simulated output does not encode: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// record collects one traced pass's host-time figures by metric name.
// Figures of several traced passes are reduced to their per-name medians.
type record map[string]float64

func (r record) add(name string, v float64) { r[name] += v }

// medians reduces the records of several passes, name by name.
func medians(recs []record) map[string]float64 {
	byName := make(map[string][]float64)
	for _, r := range recs {
		for k, v := range r {
			byName[k] = append(byName[k], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for k, vs := range byName {
		out[k] = median(vs)
	}
	return out
}

// timeIt runs f and returns its wall time in seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}
