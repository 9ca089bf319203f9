package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// smallLoads builds every workload at a size that runs in seconds.
func smallLoads(t *testing.T, seed int64) []*load {
	t.Helper()
	crash, err := newCrashCampaign(seed, crashSize{warmup: 30, ops: 1, samples: 0})
	if err != nil {
		t.Fatal(err)
	}
	lit, err := newLitmus(seed, litmusSize{perThreads: map[int]int{2: 3, 3: 3, 4: 3}, maxStates: 30000})
	if err != nil {
		t.Fatal(err)
	}
	return []*load{
		newPaperGrid(seed, 0.0005),
		newFleet(seed, fleetSize{requests: 100, nominalRequests: 1000}),
		crash,
		lit,
	}
}

// TestSimulationRepeats runs every workload twice from the same seed, plus
// its traced twin, and requires identical digests and simulated metrics: the
// property a simulator-speed change must keep.
func TestSimulationRepeats(t *testing.T) {
	first := smallLoads(t, 7)
	second := smallLoads(t, 7)
	for i, w := range first {
		t.Run(w.name, func(t *testing.T) {
			a, err := runPass(w.units, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runPass(second[i].units, false)
			if err != nil {
				t.Fatal(err)
			}
			rec := make(record)
			c, err := runPass(w.traced(rec), true)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest != b.digest || a.digest != c.digest {
				t.Fatalf("digests differ: run %s, rerun %s, traced %s", a.digest, b.digest, c.digest)
			}
			va, vb := w.check(a.outs), second[i].check(b.outs)
			if len(va.bad) > 0 {
				t.Fatalf("violations: %v", va.bad)
			}
			if !reflect.DeepEqual(va.sim, vb.sim) {
				t.Fatalf("simulated metrics differ:\n%v\n%v", va.sim, vb.sim)
			}
			if len(rec) == 0 {
				t.Fatal("traced pass recorded nothing")
			}
		})
	}
}

// TestSeedChangesInputs guards against a workload ignoring its seed.
func TestSeedChangesInputs(t *testing.T) {
	w1, err := newLitmus(1, litmusSize{perThreads: map[int]int{2: 2}, maxStates: 30000})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := newLitmus(2, litmusSize{perThreads: map[int]int{2: 2}, maxStates: 30000})
	if err != nil {
		t.Fatal(err)
	}
	a, err := runPass(w1.units, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPass(w2.units, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest == b.digest {
		t.Fatal("seeds 1 and 2 simulated the same programs")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the printed metrics in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d] = %+v, want %+v", what, i, g, m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestParseTop(t *testing.T) {
	const out = `File: perfbench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     500ms 50.00% 50.00%      600ms 60.00%  specpersist/internal/cpu.(*CPU).dispatch
     200ms 20.00% 70.00%      200ms 20.00%  runtime.mallocgc
     100ms 10.00% 80.00%      100ms 10.00%  aeshashbody
     100ms 10.00% 90.00%      100ms 10.00%  internal/runtime/maps.(*Map).getWithKeySmall
     100ms 10.00%   100%      100ms 10.00%  specpersist/internal/fault.DDMinList[go.shape.struct { Line uint64 }]
`
	shares, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	dst := make(map[string]float64)
	profileLayers(dst, shares)
	want := map[string]float64{"prof.cpu_share": 0.5, "prof.runtime_share": 0.4, "prof.fault_share": 0.1}
	for k, v := range want {
		if math.Abs(dst[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, dst[k], v)
		}
	}
}
