package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestExitCodes drives the real binary via the re-exec helper: a small
// campaign exits zero, and a negative count exits non-zero with an error
// naming the flag instead of running the default campaign.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		wantOK bool
		want   string
	}{
		{"valid campaign", []string{"-exhaustive", "-structures", "list", "-warmup", "8", "-ops", "1"}, true, "recovered atomically"},
		{"negative ops", []string{"-ops", "-1"}, false, "-ops"},
		{"negative warmup", []string{"-warmup", "-3"}, false, "-warmup"},
		{"negative samples", []string{"-samples", "-2"}, false, "-samples"},
		{"negative workers", []string{"-workers", "-2"}, false, "-workers"},
		{"negative trials", []string{"-trials", "-1"}, false, "-trials"},
		{"negative max violations", []string{"-max-violations", "-1"}, false, "-max-violations"},
		{"unknown structure", []string{"-structures", "qq"}, false, "unknown structure"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperCrashtestMain$")
			cmd.Env = append(os.Environ(), "CRASHTEST_HELPER_ARGS="+strings.Join(tc.args, "\x1f"))
			out, err := cmd.CombinedOutput()
			if tc.wantOK && err != nil {
				t.Fatalf("expected success, got %v:\n%s", err, out)
			}
			if !tc.wantOK {
				if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
					t.Fatalf("expected a non-zero exit, got err=%v:\n%s", err, out)
				}
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output does not mention %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestHelperCrashtestMain is not a real test: when re-executed with
// CRASHTEST_HELPER_ARGS set, it becomes the crashtest binary.
func TestHelperCrashtestMain(t *testing.T) {
	raw, ok := os.LookupEnv("CRASHTEST_HELPER_ARGS")
	if !ok {
		t.Skip("helper process only")
	}
	os.Args = append([]string{"crashtest"}, strings.Split(raw, "\x1f")...)
	main()
}
