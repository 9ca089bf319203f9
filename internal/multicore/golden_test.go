package multicore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestGoldenSharedWorkload pins the exact bytes of the 4-core shared-range
// run — per-core stats, the metrics snapshot and every core's commit log —
// so a change to the interleaving rule fails here even when it stays
// deterministic.
func TestGoldenSharedWorkload(t *testing.T) {
	res, err := RunWorkload(sharedWorkload(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rollbacks == 0 {
		t.Fatal("shared workload produced no rollbacks")
	}
	b, err := json.Marshal([]any{res.Stats, res.Metrics, res.CommitLogs})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got, want := hex.EncodeToString(sum[:]), "20c68f029ee7e98b4d9c90914ce3fadafae04fbde015730662b9a1250a60d99d"; got != want {
		t.Errorf("shared workload digest %s, want %s", got, want)
	}
}
