package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specpersist/internal/service"
)

func TestBuildVstoreConfigValid(t *testing.T) {
	out, err := runArgs("-vstore", "-rate", "800", "-requests", "16", "-warmup", "16", "-json")
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	var res service.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output is not a service result: %v", err)
	}
	if res.Config.Structure != "VT" {
		t.Errorf("structure not pinned to VT: %+v", res.Config)
	}
}

func TestBuildVstoreConfigRejectsBadFlags(t *testing.T) {
	testBadFlags(t, []string{"-vstore"}, []badFlagCase{
		{"unknown variant", []string{"-variant", "Warp"}, "variant"},
		{"non-durable variant", []string{"-variant", "Base"}, "durable"},
		{"negative cores", []string{"-cores", "-1"}, "-cores"},
		{"negative deadline", []string{"-batch-deadline", "-5"}, "-batch-deadline"},
		{"zero rate", []string{"-rate", "0"}, "rate"},
		{"negative batch", []string{"-batch", "-2"}, "batch"},
		{"bad get fraction", []string{"-get-frac", "2"}, "get fraction"},
		{"unknown process", []string{"-process", "steady"}, "process"},
	})
}

// TestBuildVstoreConfigRejectsForeignModeFlags: every foreign-mode flag —
// including -service, the WAL-only -log-cap and the benchmark selector
// -bench — must clash loudly with -vstore, never be silently ignored.
func TestBuildVstoreConfigRejectsForeignModeFlags(t *testing.T) {
	if newCLI().readers["vstore"]&vstoreMode == 0 {
		t.Fatal("the mode's own flag is foreign to it")
	}
	testForeignFlags(t, vstoreMode, "-vstore")
	_, err := runArgs("-vstore", "-bench", "BT", "-log-cap", "128")
	if err == nil || !strings.Contains(err.Error(), "-bench") || !strings.Contains(err.Error(), "-log-cap") {
		t.Errorf("multi-flag clash error %v must list every offending flag", err)
	}
}

// TestVstoreTimeline: -vstore honours -timeline and writes a Chrome trace.
func TestVstoreTimeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	if _, err := runArgs("-vstore", "-rate", "800", "-requests", "16", "-warmup", "16", "-timeline", path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no timeline written: %v", err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("timeline is not a non-empty Chrome trace (err=%v, %d events)", err, len(trace.TraceEvents))
	}
}
