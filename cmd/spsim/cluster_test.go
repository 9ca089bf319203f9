package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"specpersist/internal/cluster"
)

// smallFleet keeps the valid -cluster runs of these tests short.
var smallFleet = []string{"-cluster", "-bench", "HM", "-rate", "400", "-requests", "24", "-warmup", "24", "-json"}

// runFleet runs spsim -cluster with args after smallFleet and decodes the
// -json result.
func runFleet(t *testing.T, args ...string) cluster.Result {
	t.Helper()
	out, err := runArgs(append(append([]string{}, smallFleet...), args...)...)
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	var res cluster.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("-json output is not a cluster result: %v", err)
	}
	return res
}

func TestBuildClusterConfigValid(t *testing.T) {
	cfg := runFleet(t).Config
	if cfg.Structure != "HM" || cfg.Nodes != 3 || cfg.Replicas != 2 || cfg.Requests != 24 {
		t.Errorf("config not assembled from the flags: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("assembled config fails validation: %v", err)
	}
}

func TestBuildClusterConfigRejectsBadFlags(t *testing.T) {
	testBadFlags(t, []string{"-cluster", "-bench", "HM"}, []badFlagCase{
		{"unknown variant", []string{"-variant", "Warp"}, "variant"},
		{"non-durable variant", []string{"-variant", "Base"}, "durable"},
		{"unknown structure", []string{"-bench", "QQ"}, "structure"},
		{"zero rate", []string{"-rate", "0"}, "rate"},
		{"zero nodes", []string{"-nodes", "0"}, "node"},
		{"replicas over nodes", []string{"-replicas", "5"}, "replication factor"},
		{"quorum over replicas", []string{"-quorum", "3"}, "quorum"},
		{"zero vnodes", []string{"-vnodes", "0"}, "virtual node"},
		{"negative batch", []string{"-batch", "-2"}, "batch"},
		{"negative deadline", []string{"-batch-deadline", "-5"}, "-batch-deadline"},
		{"negative rtt", []string{"-net-rtt", "-1"}, "-net-rtt"},
		{"tiny rtt", []string{"-net-rtt", "1"}, "RTT"},
		{"jitter out of range", []string{"-net-jitter", "1"}, "jitter"},
		{"bad zipf", []string{"-zipf", "0.3"}, "zipf"},
		{"bad get fraction", []string{"-get-frac", "2"}, "get fraction"},
		{"negative crash-at", []string{"-crash-at", "-1"}, "-crash-at"},
		{"crash node out of range", []string{"-crash-at", "1000", "-crash-node", "7"}, "crash node"},
		{"recover without crash", []string{"-recover-after", "1000"}, "crash"},
		{"negative rebalance", []string{"-rebalance-every", "-1"}, "-rebalance-every"},
		{"negative req-deadline", []string{"-req-deadline", "-1"}, "-req-deadline"},
		{"negative retry-max", []string{"-retry-max", "-1"}, "-retry-max"},
		{"hedge quantile out of range", []string{"-hedge-quantile", "1"}, "-hedge-quantile"},
		{"negative shed high water", []string{"-shed-high-water", "-1"}, "-shed-high-water"},
		{"negative heartbeat", []string{"-heartbeat-every", "-1"}, "-heartbeat-every"},
		{"negative lease", []string{"-lease-cycles", "-1"}, "-lease-cycles"},
		{"drop fraction out of range", []string{"-chaos-drop", "1.5"}, "drop"},
		{"lossy chaos without deadline", []string{"-chaos-drop", "0.1"}, "deadline"},
		{"heartbeats without deadline", []string{"-heartbeat-every", "4000"}, "deadline"},
		{"lease not past heartbeat", []string{"-req-deadline", "100000", "-heartbeat-every", "4000", "-lease-cycles", "4000"}, "lease"},
		{"plan file plus inline dials", []string{"-chaos-plan", "plan.json", "-chaos-dup", "0.1"}, "-chaos-plan"},
		{"missing plan file", []string{"-chaos-plan", "does-not-exist.json"}, "-chaos-plan"},
	})
}

// TestBuildClusterConfigLoadsPlanFile: a plan JSON on disk (the shrinker's
// output format) replays into the fleet configuration verbatim.
func TestBuildClusterConfigLoadsPlanFile(t *testing.T) {
	path := t.TempDir() + "/plan.json"
	if err := os.WriteFile(path, []byte(`{"seed": 7, "drop": 0.1, "dup": 0.05}`), 0o644); err != nil {
		t.Fatal(err)
	}
	robust := []string{"-req-deadline", "120000", "-heartbeat-every", "4000", "-lease-cycles", "16000"}
	p := runFleet(t, append(robust, "-chaos-plan", path)...).Config.Chaos
	if p == nil || p.Seed != 7 || p.Drop != 0.1 || p.Dup != 0.05 {
		t.Fatalf("plan not loaded from file: %+v", p)
	}
	bad := path + ".bad"
	if err := os.WriteFile(bad, []byte(`{"drop": 2.0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runArgs(append(append([]string{"-cluster"}, robust...), "-chaos-plan", bad)...); err == nil {
		t.Fatal("invalid plan file accepted")
	}
}

// TestBuildClusterConfigRejectsForeignModeFlags: flags of the other modes
// must clash loudly with -cluster, never be silently ignored, and the
// error must name every offender.
func TestBuildClusterConfigRejectsForeignModeFlags(t *testing.T) {
	testForeignFlags(t, clusterMode, "-cluster")
	_, err := runArgs("-cluster", "-service", "-mc-ops", "3")
	if err == nil || !strings.Contains(err.Error(), "-service") || !strings.Contains(err.Error(), "-mc-ops") {
		t.Errorf("multi-flag clash error %v must list every offending flag", err)
	}
}

// TestClusterFlagsClashWithService: the cluster flag family must also be
// rejected from the -service side, so the two modes cannot be mixed in
// either direction.
func TestClusterFlagsClashWithService(t *testing.T) {
	for _, name := range []string{
		"cluster", "replicas", "quorum", "net-rtt", "crash-at",
		"chaos-plan", "chaos-drop", "req-deadline", "retry-max",
		"heartbeat-every", "audit",
	} {
		_, err := runArgs("-service", "-"+name+"="+newCLI().fs.Lookup(name).DefValue)
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-%s alongside -service: err=%v, want clash naming the flag", name, err)
		}
	}
}
