package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// goldenBudget is the state budget of the pinned checks: the one the
// litmus benchmark workload uses, so the pinned programs include ones the
// budget caps.
const goldenBudget = 30_000

// goldenTrials are the campaign seed-1 trial programs the digests cover:
// the first 30 trials (10 with two threads, 11 with three, 9 with four),
// trial 46 (four threads, capped at goldenBudget) and three trials whose
// injected probes force rollbacks and NACK deferrals with three and four
// threads (trial 5 among the first 30 does so with two).
var goldenTrials = func() []int {
	var idx []int
	for i := 0; i < 30; i++ {
		idx = append(idx, i)
	}
	return append(idx, 46, 55, 118, 164)
}()

func goldenPrograms(t *testing.T) []Program {
	t.Helper()
	progs := Curated()
	cfg := CampaignConfig{Programs: 200, Seed: 1}
	for _, i := range goldenTrials {
		p, err := TrialProgram(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// digestOf hashes the JSON encoding of every value in order.
func digestOf(t *testing.T, vals ...any) string {
	t.Helper()
	h := sha256.New()
	for _, v := range vals {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestGoldenCheckResults pins the exact bytes of Check — allowed sets,
// per-mode outcome sets, explorer state counts, rollback and NACK counts,
// stream equality — for the curated corpus and the golden trials, so a
// change to the explorers or to the machine that stays self-consistent
// still fails here. Capped programs contribute their error text.
func TestGoldenCheckResults(t *testing.T) {
	threads := make(map[int]int)
	forced, deferred, capped := 0, 0, 0
	var docs []any
	for _, p := range goldenPrograms(t) {
		res, err := Check(p, Config{MaxStates: goldenBudget})
		if err != nil && !errors.Is(err, ErrStateCap) {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err != nil {
			capped++
		}
		threads[len(p.Threads)]++
		for _, m := range res.Modes {
			forced += m.ForcedRollbacks
			deferred += m.NackDeferred
		}
		docs = append(docs, res, errText(err))
	}
	for n := 2; n <= MaxThreads; n++ {
		if threads[n] < 8 {
			t.Errorf("only %d pinned programs with %d threads", threads[n], n)
		}
	}
	if forced == 0 || deferred == 0 || capped == 0 {
		t.Errorf("pinned set too tame: %d forced rollbacks, %d NACK deferrals, %d capped", forced, deferred, capped)
	}
	if got, want := digestOf(t, docs...), "2d78395c6ebe23526b76b9d5d7ab9e66b1f0587f2cd27f9b461f28f1bb094e89"; got != want {
		t.Errorf("Check digest %s, want %s", got, want)
	}
}

// TestGoldenEnumerate pins the reference explorer alone under both
// semantics: outcome sets (sorted) and visited-state counts.
func TestGoldenEnumerate(t *testing.T) {
	for _, tc := range []struct {
		sem  Semantics
		want string
	}{
		{Strict(), "5063eceea7a44ecbd5853f028d275b10248a19c6b171c5ee457a45f8b16dbe18"},
		{Weakened(), "90482a5a856a7fb896137cb2889849fdda94441f6d2fc7b06fa83fde3b0e3511"},
	} {
		var docs []any
		for _, p := range goldenPrograms(t) {
			set, states, err := tc.sem.Enumerate(&p, goldenBudget)
			if err != nil && !errors.Is(err, ErrStateCap) {
				t.Fatalf("%s %s: %v", tc.sem, p.Name, err)
			}
			docs = append(docs, sortedOutcomes(set), states, errText(err))
		}
		if got := digestOf(t, docs...); got != tc.want {
			t.Errorf("%s Enumerate digest %s, want %s", tc.sem, got, tc.want)
		}
	}
}

// TestGoldenStateCap pins where each explorer stops on a program that
// overflows a small budget: the visited-state count at the cap, so no
// explorer's budget check can drift by a state.
func TestGoldenStateCap(t *testing.T) {
	p, err := TrialProgram(CampaignConfig{Programs: 2, Seed: 1}, 1) // 4 threads, 20,882 reference states
	if err != nil {
		t.Fatal(err)
	}
	_, states, err := Strict().Enumerate(&p, 5_000)
	if !errors.Is(err, ErrStateCap) {
		t.Fatalf("Enumerate under a 5,000-state budget: %v", err)
	}
	pl, err := compile(&p)
	if err != nil {
		t.Fatal(err)
	}
	_, slackStates, err := slackOutcomes(pl, 500)
	if !errors.Is(err, ErrStateCap) {
		t.Fatalf("slackOutcomes under a 500-state budget: %v", err)
	}
	run, err := runMachine(pl, Modes(&p)[0])
	if err != nil {
		t.Fatal(err)
	}
	_, machineStates, err := machineOutcomes(pl, run.raw, 500)
	if !errors.Is(err, ErrStateCap) {
		t.Fatalf("machineOutcomes under a 500-state budget: %v", err)
	}
	got := fmt.Sprintf("reference %d, slack %d, machine %d", states, slackStates, machineStates)
	if want := "reference 5002, slack 502, machine 502"; got != want {
		t.Errorf("states at the cap: %s, want %s", got, want)
	}
}
