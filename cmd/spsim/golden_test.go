package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// spsimStdout runs spsim with args through the re-exec helper and returns
// exactly what the command wrote to stdout.
func spsimStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperSpsimMain$")
	cmd.Env = append(os.Environ(), "SPSIM_HELPER_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("spsim %v: %v", args, err)
	}
	// The test binary reports PASS on stdout once main returns.
	s, ok := strings.CutSuffix(string(out), "PASS\n")
	if !ok {
		t.Fatalf("spsim %v: helper output lacks the PASS trailer:\n%s", args, out)
	}
	return []byte(s)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenOutputs pins the stdout of one text and one -json run per
// mode, the CI smoke argument strings and an audited chaos run: any
// change to flag wiring or output formatting shows up as a digest
// mismatch.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		name string
		args string
		want string
	}{
		{"bench text", "-bench LL -variant SP -scale 0.002 -op-overhead 50",
			"cb16b7fc40280a766dd16c83de36a3a1788615d0fd015f85ee959b38a1ef0adf"},
		{"bench json", "-bench HM -variant Log+P+Sf -scale 0.002 -json",
			"270098d4c8d68f848031f6b8067e3e2731c115e6c6dcf51bbe768d4fd3471913"},
		{"multicore text (CI)", "-cores 2 -bench HM -mc-frac 1.0 -mc-shared-lines 2 -expect-rollbacks",
			"62aea293b1c7de8969a109668ea706ce72be2be6aca6f4a3a67a5429aaa0a128"},
		{"multicore json", "-cores 2 -bench LL -mc-ops 16 -json",
			"1e9928b546ec300251713bcd6909cc3d84e744a068d0f8b64d00e0e932926948"},
		{"service text", "-service -rate 800 -requests 16 -warmup 16",
			"d54be459b00fdfbb7a1b21e5dbba318c31d81d4d8d146957037fee7632ad474f"},
		{"service json (CI)", "-service -rate 1500 -requests 96 -warmup 48 -cores 2 -batch 4 -batch-deadline 4000 -variant SP -json",
			"7c30e218038f615bc78b13a965fe5e6faf9a246e94c905322bc65f34268a5f5b"},
		{"vstore text", "-vstore -rate 800 -requests 16 -warmup 16",
			"c58a68cdb2f5cf9a16a48da65bcb6dafe4b95811fd4428df02e4528b2a89b6f5"},
		{"vstore json (CI)", "-vstore -rate 1200 -requests 96 -warmup 48 -batch 4 -batch-deadline 4000 -variant SP -json",
			"76352cb7100c7e450beb34302ed5cb213f2b07ddbc72fc540ad4f51cb54ef3b9"},
		{"cluster text", "-cluster -rate 400 -requests 24 -warmup 24",
			"fef5cb81bb9a5df8dfa37b0c91c98954d074b20ce729d27ce5039ed066fd1067"},
		{"cluster json (CI)", "-cluster -replicas 2 -quorum 1 -rate 300 -requests 96 -warmup 48 -batch 4 -batch-deadline 4000 -crash-at 120000 -crash-node 1 -recover-after 150000 -variant SP -json",
			"5edb8c103dffff39b401dcb8e59bcdbffae9fab16700cd283e1622a8d8194a30"},
		{"cluster chaos audit", "-cluster -rate 400 -requests 24 -warmup 24 -chaos-drop 0.05 -req-deadline 120000 -retry-max 4 -heartbeat-every 4000 -audit",
			"de8f0a735b6c562abb2a5fd774a78aa67b795a261b85f5204c0ca045b6812f5b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := digest(spsimStdout(t, strings.Fields(tc.args)...)); got != tc.want {
				t.Errorf("spsim %s: stdout digest %s, want %s", tc.args, got, tc.want)
			}
		})
	}
}

// TestGoldenTimeline pins the bytes of a benchmark-mode -timeline file and
// checks that writing it leaves stdout unchanged.
func TestGoldenTimeline(t *testing.T) {
	const (
		args       = "-bench LL -variant SP -scale 0.002 -op-overhead 50"
		wantStdout = "cb16b7fc40280a766dd16c83de36a3a1788615d0fd015f85ee959b38a1ef0adf"
		wantTrace  = "64be3794c9f080214b2bad1f100e51e71ba7d49ba02d5bf76ecc661a38678b10"
	)
	path := filepath.Join(t.TempDir(), "tl.json")
	out := spsimStdout(t, append(strings.Fields(args), "-timeline", path)...)
	if got := digest(out); got != wantStdout {
		t.Errorf("stdout digest %s, want %s", got, wantStdout)
	}
	trace, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(trace); got != wantTrace {
		t.Errorf("timeline digest %s, want %s", got, wantTrace)
	}
}
