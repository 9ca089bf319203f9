package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"specpersist/internal/core"
)

// digest is the SHA-256 of v's JSON encoding.
func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenResults pins the exact bytes of a small matrix of service
// runs: a refactor of the scheduler, the admission path or the arrival
// generator must leave every simulated output unchanged, and a second
// run of the same code (the determinism tests) cannot catch a change
// that is itself deterministic.
func TestGoldenResults(t *testing.T) {
	k4 := DefaultConfig()
	k4.Rate = 800
	k4.Requests = 96
	k4.Cores = 2
	k4.BatchMax = 4
	k4.BatchDeadline = 2000

	bursty := DefaultConfig()
	bursty.Variant = core.VariantLogPSf
	bursty.Process = Bursty
	bursty.Cores = 3
	bursty.Rate = 600
	bursty.Requests = 160
	bursty.BatchMax = 8
	bursty.BatchDeadline = 3000

	vt := DefaultConfig()
	vt.Structure = "VT"
	vt.Rate = 400
	vt.Requests = 96
	vt.BatchMax = 4
	vt.BatchDeadline = 2000

	overload := DefaultConfig()
	overload.Variant = core.VariantLogP
	overload.Cores = 4
	overload.Rate = 20000
	overload.Requests = 200
	overload.QueueCap = 4

	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"k4-2core", k4, "427f890bd81b823548950b0d3171f9d703d6c4f397f82597c4b91d93ed74bcce"},
		{"bursty-logpsf-3core-k8", bursty, "e7be3428052013120684854be61d842535033b5b1c1320d689488b51e69f8ea9"},
		{"vt-k4", vt, "ebf6e830ae5cf08dce5adbc12e1bfefce2fa5439f63234bf9508be45f3074384"},
		{"overload-4core-drops", overload, "59472c7299feca49d9118b2bdf03f9e310ca9d2eb1ebbc3addf4e1d671676510"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if c.name == "overload-4core-drops" && res.Stats.Dropped == 0 {
				t.Fatal("overload scenario dropped nothing")
			}
			if got := digest(t, res); got != c.want {
				t.Errorf("result digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestGoldenSweeps pins the tiny latency and vstore sweep grids plus the
// tables cmd/figures renders from them.
func TestGoldenSweeps(t *testing.T) {
	sc := DefaultSweepConfig()
	sc.Base.Requests = 48
	sc.Base.Warmup = 32
	sc.Rates = []float64{200, 600}
	sc.Batches = []int{1, 4}
	points, err := LatencySweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	latency := digest(t, []any{points, LatencyTable(points).String(), SLOTable(points).String()})
	if want := "09a9230d41c4f449ae0d8c329d925840d6cd7307a5f71a37ae0eab560e9b08de"; latency != want {
		t.Errorf("latency sweep digest %s, want %s", latency, want)
	}

	vc := DefaultVstoreSweepConfig()
	vc.Base.Requests = 48
	vc.Base.Warmup = 32
	vc.Rates = []float64{200, 600}
	vc.Batches = []int{1, 4}
	vpoints, err := VstoreSweep(vc)
	if err != nil {
		t.Fatal(err)
	}
	vstore := digest(t, []any{vpoints, VstoreTable(vpoints).String(), VstoreCapacityTable(vpoints).String()})
	if want := "70806c42f7a37a529c510e9a9aca282f93ad6be9410c9f2d2cb5fd8577d7eec4"; vstore != want {
		t.Errorf("vstore sweep digest %s, want %s", vstore, want)
	}
}
