package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// exitCases is the one exit-status table, over all five modes: a small
// valid run of each mode exits zero, and invalid or foreign flags exit
// non-zero with a diagnostic naming the offender. The rows include every
// invocation that once ran with a flag silently ignored. mode names the
// Test function that runs the row.
var exitCases = []struct {
	mode   string
	name   string
	args   []string
	wantOK bool
	want   string
}{
	{"bench", "valid run", []string{"-bench", "LL", "-scale", "0.002", "-op-overhead", "50"}, true, "benchmark"},
	{"bench", "fleet and serving flags", []string{"-bench", "LL", "-nodes", "9", "-rate", "5"}, false, "flags [-nodes -rate] do not apply to -bench runs"},
	{"bench", "multicore and serving flags", []string{"-bench", "LL", "-mc-frac", "0.9", "-batch", "8"}, false, "flags [-batch -mc-frac]"},
	{"bench", "negative ssb", []string{"-bench", "LL", "-ssb", "-5"}, false, "-ssb"},
	{"bench", "negative checkpoints", []string{"-bench", "LL", "-checkpoints", "-1"}, false, "-checkpoints"},
	{"bench", "negative banks", []string{"-bench", "LL", "-banks", "-2"}, false, "-banks"},
	{"bench", "negative cores", []string{"-bench", "LL", "-cores", "-3"}, false, "-cores"},
	{"bench", "positional junk", []string{"-bench", "LL", "extra"}, false, "unexpected"},

	{"multicore", "valid run", []string{"-cores", "2", "-bench", "HM", "-mc-frac", "1.0", "-mc-shared-lines", "2", "-expect-rollbacks"}, true, "rollbacks"},
	{"multicore", "rate", []string{"-cores", "2", "-rate", "300"}, false, "flags [-rate] do not apply to -cores runs"},
	{"multicore", "variant", []string{"-cores", "2", "-variant", "Base"}, false, "-variant"},

	{"service", "valid run", []string{"-service", "-rate", "800", "-requests", "16", "-warmup", "16"}, true, "service"},
	{"service", "clashing mode flags", []string{"-service", "-scale", "0.5"}, false, "-scale"},
	{"service", "bad variant", []string{"-service", "-variant", "Base"}, false, "durable"},
	{"service", "bad rate", []string{"-service", "-rate", "-1"}, false, "rate"},
	{"service", "bad batch", []string{"-service", "-batch", "0"}, false, "batch"},
	{"service", "banks", []string{"-service", "-banks", "4"}, false, "flags [-banks] do not apply to -service runs"},
	{"service", "negative ssb", []string{"-service", "-ssb", "-5"}, false, "-ssb"},

	{"vstore", "valid run", []string{"-vstore", "-rate", "800", "-requests", "16", "-warmup", "16"}, true, "changeset commits"},
	{"vstore", "bench clash", []string{"-vstore", "-bench", "BT"}, false, "-bench"},
	{"vstore", "service clash", []string{"-vstore", "-service"}, false, "-service"},
	{"vstore", "log-cap clash", []string{"-vstore", "-log-cap", "128"}, false, "-log-cap"},
	{"vstore", "bad variant", []string{"-vstore", "-variant", "Base"}, false, "durable"},
	{"vstore", "banks", []string{"-vstore", "-banks", "4"}, false, "-banks"},

	{"cluster", "valid run", []string{"-cluster", "-rate", "400", "-requests", "24", "-warmup", "24"}, true, "cluster"},
	{"cluster", "clashing service flags", []string{"-cluster", "-process", "bursty"}, false, "-process"},
	{"cluster", "clashing bench flags", []string{"-cluster", "-scale", "0.5"}, false, "-scale"},
	{"cluster", "bad replicas", []string{"-cluster", "-replicas", "9"}, false, "replication factor"},
	{"cluster", "bad quorum", []string{"-cluster", "-replicas", "2", "-quorum", "3"}, false, "quorum"},
	{"cluster", "bad rtt", []string{"-cluster", "-net-rtt", "1"}, false, "RTT"},
	{"cluster", "recover without crash", []string{"-cluster", "-recover-after", "500"}, false, "crash"},
	{"cluster", "chaos run with robustness stack", []string{
		"-cluster", "-rate", "400", "-requests", "24", "-warmup", "24",
		"-chaos-drop", "0.05", "-chaos-dup", "0.05",
		"-req-deadline", "120000", "-retry-max", "4",
		"-heartbeat-every", "4000", "-lease-cycles", "16000",
	}, true, "chaos fabric"},
	{"cluster", "audited run reports", []string{
		"-cluster", "-rate", "400", "-requests", "24", "-warmup", "24", "-audit",
	}, true, "audit"},
	{"cluster", "lossy chaos needs a deadline", []string{"-cluster", "-chaos-drop", "0.05"}, false, "deadline"},
	{"cluster", "chaos plan file clashes with dials", []string{"-cluster", "-chaos-plan", "p.json", "-chaos-drop", "0.05"}, false, "-chaos-plan"},
	{"cluster", "bad hedge quantile", []string{"-cluster", "-hedge-quantile", "1.5"}, false, "-hedge-quantile"},
	{"cluster", "chaos flags clash with service", []string{"-service", "-chaos-drop", "0.1"}, false, "-chaos-drop"},
	{"cluster", "banks", []string{"-cluster", "-banks", "2"}, false, "flags [-banks] do not apply to -cluster runs"},
}

// testExitCodes drives the real binary through the re-exec helper for the
// table rows of one mode.
func testExitCodes(t *testing.T, mode string) {
	for _, tc := range exitCases {
		if tc.mode != mode {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperSpsimMain$")
			cmd.Env = append(os.Environ(), "SPSIM_HELPER_ARGS="+strings.Join(tc.args, "\x1f"))
			out, err := cmd.CombinedOutput()
			if tc.wantOK && err != nil {
				t.Fatalf("expected success, got %v:\n%s", err, out)
			}
			if !tc.wantOK {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("expected a non-zero exit, got err=%v:\n%s", err, out)
				}
				if ee.ExitCode() == 0 {
					t.Fatalf("exit code 0 for invalid flags:\n%s", out)
				}
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output does not mention %q:\n%s", tc.want, out)
			}
		})
	}
}

func TestBenchModeExitCodes(t *testing.T)     { testExitCodes(t, "bench") }
func TestMulticoreModeExitCodes(t *testing.T) { testExitCodes(t, "multicore") }
func TestServiceModeExitCodes(t *testing.T)   { testExitCodes(t, "service") }
func TestVstoreModeExitCodes(t *testing.T)    { testExitCodes(t, "vstore") }
func TestClusterModeExitCodes(t *testing.T)   { testExitCodes(t, "cluster") }

// TestHelperSpsimMain is not a real test: when re-executed with
// SPSIM_HELPER_ARGS set, it becomes the spsim binary.
func TestHelperSpsimMain(t *testing.T) {
	raw, ok := os.LookupEnv("SPSIM_HELPER_ARGS")
	if !ok {
		t.Skip("helper process only")
	}
	os.Args = append([]string{"spsim"}, strings.Split(raw, "\x1f")...)
	main()
}

// runArgs runs spsim in-process and returns its stdout.
func runArgs(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// badFlagCase is one invalid invocation and a substring its error must
// contain.
type badFlagCase struct {
	name string
	args []string
	want string
}

// testBadFlags runs each case after the mode's selector flags and expects
// an error mentioning the case's substring.
func testBadFlags(t *testing.T, selector []string, cases []badFlagCase) {
	t.Helper()
	for _, tc := range cases {
		args := append(slices.Clone(selector), tc.args...)
		_, err := runArgs(args...)
		if err == nil {
			t.Errorf("%s: accepted %v", tc.name, args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// testForeignFlags walks the whole flag table: next to the mode's selector
// flags, every other flag the mode reads parses cleanly, and every flag it
// does not read is an error naming that flag.
func testForeignFlags(t *testing.T, m mode, selector ...string) {
	t.Helper()
	c := newCLI()
	c.fs.VisitAll(func(f *flag.Flag) {
		if slices.Contains(selector, "-"+f.Name) {
			return
		}
		args := append(slices.Clone(selector), "-"+f.Name+"="+f.DefValue)
		if c.readers[f.Name]&m != 0 {
			if _, err := newCLI().parse(args); err != nil {
				t.Errorf("%s reads -%s, but %v was rejected: %v", m, f.Name, args, err)
			}
			return
		}
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "-"+f.Name) {
			t.Errorf("-%s alongside %s: err=%v, want a clash naming the flag", f.Name, m, err)
		}
	})
}

// TestBenchAndMulticoreRejectForeignFlags: the single-machine modes own
// their flags as strictly as the serving modes do.
func TestBenchAndMulticoreRejectForeignFlags(t *testing.T) {
	testForeignFlags(t, benchMode)
	testForeignFlags(t, multicoreMode, "-cores", "2")
}
