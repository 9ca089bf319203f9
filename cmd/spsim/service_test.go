package main

import (
	"encoding/json"
	"strings"
	"testing"

	"specpersist/internal/service"
)

func TestBuildServiceConfigValid(t *testing.T) {
	out, err := runArgs("-service", "-requests", "16", "-warmup", "16", "-json")
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	var res service.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output is not a service result: %v", err)
	}
	if res.Config.Structure != "LL" || res.Config.Rate != 50 || res.Config.Requests != 16 {
		t.Errorf("config not assembled from the flags: %+v", res.Config)
	}
}

func TestBuildServiceConfigRejectsBadFlags(t *testing.T) {
	testBadFlags(t, []string{"-service"}, []badFlagCase{
		{"unknown variant", []string{"-variant", "Warp"}, "variant"},
		{"non-durable variant", []string{"-variant", "Base"}, "durable"},
		{"negative cores", []string{"-cores", "-1"}, "-cores"},
		{"negative deadline", []string{"-batch-deadline", "-5"}, "-batch-deadline"},
		{"negative burst period", []string{"-burst-period", "-1"}, "-burst-period"},
		{"zero rate", []string{"-rate", "0"}, "rate"},
		{"negative batch", []string{"-batch", "-2"}, "batch"},
		{"negative queue cap", []string{"-queue-cap", "-1"}, "queue"},
		{"bad get fraction", []string{"-get-frac", "2"}, "get fraction"},
		{"unknown structure", []string{"-bench", "QQ"}, "structure"},
		{"unknown process", []string{"-process", "steady"}, "process"},
		{"negative requests", []string{"-requests", "-4"}, "request count"},
		{"negative ssb", []string{"-ssb", "-5"}, "-ssb"},
	})
}

// TestBuildServiceConfigRejectsForeignModeFlags: flags of the other modes
// must clash loudly with -service, never be silently ignored, and the
// error must name every offender.
func TestBuildServiceConfigRejectsForeignModeFlags(t *testing.T) {
	testForeignFlags(t, serviceMode, "-service")
	_, err := runArgs("-service", "-scale", "0.5", "-mc-ops", "3")
	if err == nil || !strings.Contains(err.Error(), "-mc-ops") || !strings.Contains(err.Error(), "-scale") {
		t.Errorf("multi-flag clash error %v must list every offending flag", err)
	}
}
