package cluster

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

// TestGoldenResults pins the exact bytes of a small matrix of fleet runs
// and chaos campaigns, so a refactor of the event loop or the admission
// path that changes any simulated output fails here even when it stays
// deterministic.
func TestGoldenResults(t *testing.T) {
	crash := quickConfig()
	crash.Requests = 256
	crash.Rate = 400
	crash.Replicas = 3
	crash.Quorum = 2
	crash.BatchMax = 4
	crash.BatchDeadline = 4000
	crash.CrashAt = 250_000
	crash.CrashNode = 1
	crash.RecoverAfter = 200_000
	crash.ZipfS = 1.3
	crash.RebalanceEvery = 100_000

	vt := crash
	vt.Structure = "VT"
	vt.ZipfS = 0
	vt.RebalanceEvery = 0

	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(), "c8b14ee1c7b38c9134d6c7a0792780fb2e982657be2521f42cbd26c57ce87f29"},
		{"crash-rebalance-zipf-k4", crash, "c5edfe0db46779c2e1e95e9825c64e167d9f8148ffa86b7fae4d4f396f1c7b0e"},
		{"vt-crash-rejoin", vt, "be0225bbd31afa927991aff025d90fe8cbdfec752fed4f30185dce48bac657ff"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if c.cfg.CrashAt > 0 && res.Stats.Rejoins != 1 {
				t.Fatalf("crashed node did not rejoin: %+v", res.Stats)
			}
			if c.cfg.RebalanceEvery > 0 && res.Stats.Rebalances == 0 {
				t.Fatalf("rebalancer moved no primaryship: %+v", res.Stats)
			}
			if got := digest(t, res); got != c.want {
				t.Errorf("result digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestGoldenCampaigns pins two 12-trial chaos campaigns: the healthy
// robustness stack (no violations) and the broken-dedup negative control
// (violations the audit must keep finding).
func TestGoldenCampaigns(t *testing.T) {
	broken := DefaultChaosBase()
	broken.BreakDedup = true
	cases := []struct {
		name       string
		cc         CampaignConfig
		violations bool
		want       string
	}{
		{"healthy-seed1", CampaignConfig{Base: DefaultChaosBase(), Trials: 12, Seed: 1}, false, "9fc72796ce49dae83728713259b0ac42c6255bf577efe9322e98437e19d129fb"},
		{"break-dedup-seed7", CampaignConfig{Base: broken, Trials: 12, Seed: 7}, true, "ed047e98eb8233871746d38fe485181251af4115042d4e05e36c42546be00896"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Campaign(c.cc)
			if err != nil {
				t.Fatal(err)
			}
			if (res.Violations > 0) != c.violations {
				t.Fatalf("campaign found %d violations", res.Violations)
			}
			if got := digest(t, res); got != c.want {
				t.Errorf("campaign digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestGoldenSweeps pins the tiny capacity, chaos and rejoin grids plus
// the tables and curves cmd/figures renders from them.
func TestGoldenSweeps(t *testing.T) {
	sc := DefaultSweepConfig()
	sc.Base.Requests = 48
	sc.Base.Warmup = 32
	sc.Rates = []float64{150, 400}
	sc.Replicas = []int{1, 2}
	sc.Batches = []int{1, 4}
	points, err := Sweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(t, []any{points, CapacityTable(points).String()}), "6c44ee9dc6f55f97e5ed5517e9a7ccae7b6d9e7486fdc40a00a403453f01d396"; got != want {
		t.Errorf("capacity sweep digest %s, want %s", got, want)
	}

	cs := DefaultChaosSweepConfig()
	cs.Base.Requests = 80
	cs.Rates = []float64{40}
	cpoints, err := ChaosSweep(cs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(t, []any{cpoints, ChaosCapacityTable(cpoints).String()}), "6648f64e6030a01ba5d4b2b411a538b7d9e99295a57c4372a8fd18f3dd9db6ec"; got != want {
		t.Errorf("chaos sweep digest %s, want %s", got, want)
	}

	rc := DefaultRejoinConfig()
	rc.Base.Requests = 192
	rc.Base.Rate = 300
	rc.Variants = []core.Variant{core.VariantSP}
	rc.RecoverAfters = []uint64{150_000, 500_000}
	rpoints, err := RejoinSweep(rc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(t, []any{rpoints, RejoinCurve(rpoints).String()}), "9eccfdeb5dfe2fe95ef2ebeb6b6548910efddbc76edebf342e5234f044150406"; got != want {
		t.Errorf("rejoin sweep digest %s, want %s", got, want)
	}
}
