// The -cluster mode: run one replicated-fleet simulation (consistent-hash
// sharding, quorum-gated durability, crash/failover/rejoin) and print its
// accounting. Mirrors the -service flag discipline: foreign-mode flags
// clash loudly, and every invalid value reaches the user as an error and a
// non-zero exit rather than a silently misconfigured run.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"

	"specpersist/internal/chaos"
	"specpersist/internal/cluster"
	"specpersist/internal/core"
	"specpersist/internal/obs"
)

// clusterOptions carries the raw -cluster flag values plus the set of
// flags the user named explicitly (flag.Visit).
type clusterOptions struct {
	Structure      string
	Variant        string
	Nodes          int
	Replicas       int
	Quorum         int
	VNodes         int
	Rate           float64
	Requests       int
	Warmup         int
	QueueCap       int
	Batch          int
	Deadline       int64
	GetFrac        float64
	Keyspace       int
	Zipf           float64
	Overhead       int
	LogCap         int
	NetRTT         int64
	NetJitter      float64
	CatchupBatch   int
	CrashAt        int64
	CrashNode      int
	RecoverAfter   int64
	RebalanceEvery int64
	Seed           int64
	SSB            int

	// Chaos fabric: either a plan file or the inline fate dials.
	ChaosPlanFile  string
	ChaosSeed      int64
	ChaosDrop      float64
	ChaosDup       float64
	ChaosDelay     float64
	ChaosDelayMult float64
	ChaosReorder   float64

	// Client robustness and failure detection.
	ReqDeadline    int64
	RetryMax       int
	HedgeQuantile  float64
	ShedHighWater  int
	HeartbeatEvery int64
	LeaseCycles    int64

	Audit    bool
	SetFlags map[string]bool
}

// chaosFateFlags are the inline plan dials; they clash with -chaos-plan
// (the file is the complete plan, mixing the two would silently shadow).
var chaosFateFlags = []string{
	"chaos-seed", "chaos-drop", "chaos-dup", "chaos-delay", "chaos-delay-mult", "chaos-reorder",
}

// incompatibleWithCluster lists flags belonging to the benchmark,
// conflict-engine and single-fleet service modes; setting any of them
// alongside -cluster is a configuration error.
var incompatibleWithCluster = []string{
	"scale", "checkpoints",
	"mc-frac", "mc-shared-lines", "mc-ops", "mc-warmup", "mc-disjoint", "expect-rollbacks",
	"service", "vstore", "cores", "process", "burst-frac", "burst-period",
}

// buildClusterConfig validates the flag values and assembles the fleet
// configuration. All errors are user errors (exit non-zero in main).
func buildClusterConfig(o clusterOptions) (cluster.Config, error) {
	if err := rejectClashes("cluster", o.SetFlags, incompatibleWithCluster); err != nil {
		return cluster.Config{}, err
	}
	v, err := core.ParseVariant(o.Variant)
	if err != nil {
		return cluster.Config{}, err
	}
	if o.Deadline < 0 {
		return cluster.Config{}, fmt.Errorf("-batch-deadline must be non-negative, got %d", o.Deadline)
	}
	if o.Batch < 1 {
		return cluster.Config{}, fmt.Errorf("-batch must be at least 1, got %d", o.Batch)
	}
	if o.Nodes < 1 {
		// Config.Validate resolves 0 to the default fleet size; at the CLI
		// the default is already 3, so an explicit 0 is a mistake.
		return cluster.Config{}, fmt.Errorf("-nodes must be at least 1, got %d", o.Nodes)
	}
	if o.VNodes < 1 {
		return cluster.Config{}, fmt.Errorf("-vnodes must be at least 1 virtual node, got %d", o.VNodes)
	}
	if o.NetRTT < 0 {
		return cluster.Config{}, fmt.Errorf("-net-rtt must be non-negative, got %d", o.NetRTT)
	}
	if o.CrashAt < 0 {
		return cluster.Config{}, fmt.Errorf("-crash-at must be non-negative, got %d", o.CrashAt)
	}
	if o.RecoverAfter < 0 {
		return cluster.Config{}, fmt.Errorf("-recover-after must be non-negative, got %d", o.RecoverAfter)
	}
	if o.RebalanceEvery < 0 {
		return cluster.Config{}, fmt.Errorf("-rebalance-every must be non-negative, got %d", o.RebalanceEvery)
	}
	if o.ReqDeadline < 0 {
		return cluster.Config{}, fmt.Errorf("-req-deadline must be non-negative, got %d", o.ReqDeadline)
	}
	if o.RetryMax < 0 {
		return cluster.Config{}, fmt.Errorf("-retry-max must be non-negative, got %d", o.RetryMax)
	}
	if o.HedgeQuantile < 0 || o.HedgeQuantile >= 1 {
		return cluster.Config{}, fmt.Errorf("-hedge-quantile must be in [0, 1), got %g", o.HedgeQuantile)
	}
	if o.ShedHighWater < 0 {
		return cluster.Config{}, fmt.Errorf("-shed-high-water must be non-negative, got %d", o.ShedHighWater)
	}
	if o.HeartbeatEvery < 0 {
		return cluster.Config{}, fmt.Errorf("-heartbeat-every must be non-negative, got %d", o.HeartbeatEvery)
	}
	if o.LeaseCycles < 0 {
		return cluster.Config{}, fmt.Errorf("-lease-cycles must be non-negative, got %d", o.LeaseCycles)
	}
	plan, err := chaosPlanFromOptions(o)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.DefaultConfig()
	cfg.Structure = o.Structure
	cfg.Variant = v
	cfg.Nodes = o.Nodes
	cfg.Replicas = o.Replicas
	cfg.Quorum = o.Quorum
	cfg.VNodes = o.VNodes
	cfg.Rate = o.Rate
	if o.Requests > 0 {
		cfg.Requests = o.Requests
	}
	cfg.Warmup = o.Warmup
	if o.QueueCap > 0 {
		cfg.QueueCap = o.QueueCap
	}
	cfg.BatchMax = o.Batch
	cfg.BatchDeadline = uint64(o.Deadline)
	cfg.GetFrac = o.GetFrac
	if o.Keyspace > 0 {
		cfg.Keyspace = o.Keyspace
	}
	cfg.ZipfS = o.Zipf
	cfg.OpOverhead = o.Overhead
	cfg.LogCap = o.LogCap
	if o.NetRTT > 0 {
		cfg.NetRTT = uint64(o.NetRTT)
	}
	cfg.NetJitter = o.NetJitter
	if o.CatchupBatch > 0 {
		cfg.CatchupBatch = o.CatchupBatch
	}
	cfg.CrashAt = uint64(o.CrashAt)
	cfg.CrashNode = o.CrashNode
	cfg.RecoverAfter = uint64(o.RecoverAfter)
	cfg.RebalanceEvery = uint64(o.RebalanceEvery)
	cfg.Seed = o.Seed
	cfg.SSBEntries = o.SSB
	cfg.Chaos = plan
	cfg.ReqDeadline = uint64(o.ReqDeadline)
	cfg.RetryMax = o.RetryMax
	cfg.HedgeQuantile = o.HedgeQuantile
	cfg.ShedHighWater = o.ShedHighWater
	cfg.HeartbeatEvery = uint64(o.HeartbeatEvery)
	cfg.LeaseCycles = uint64(o.LeaseCycles)
	if err := cfg.Validate(); err != nil {
		return cluster.Config{}, err
	}
	return cfg, nil
}

// chaosPlanFromOptions resolves the chaos flags into a plan: a plan file
// replays verbatim (the shrinker's minimal reproducers), the inline dials
// assemble one ad hoc, and setting both is an error.
func chaosPlanFromOptions(o clusterOptions) (*chaos.Plan, error) {
	var inline []string
	for _, name := range chaosFateFlags {
		if o.SetFlags[name] {
			inline = append(inline, "-"+name)
		}
	}
	if o.ChaosPlanFile != "" {
		if len(inline) > 0 {
			sort.Strings(inline)
			return nil, fmt.Errorf("-chaos-plan is a complete plan; flags %v clash with it", inline)
		}
		blob, err := os.ReadFile(o.ChaosPlanFile)
		if err != nil {
			return nil, fmt.Errorf("-chaos-plan: %w", err)
		}
		var p chaos.Plan
		if err := json.Unmarshal(blob, &p); err != nil {
			return nil, fmt.Errorf("-chaos-plan %s: %w", o.ChaosPlanFile, err)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("-chaos-plan %s: %w", o.ChaosPlanFile, err)
		}
		return &p, nil
	}
	if len(inline) == 0 {
		return nil, nil
	}
	p := chaos.Plan{
		Seed:      o.ChaosSeed,
		Drop:      o.ChaosDrop,
		Dup:       o.ChaosDup,
		Delay:     o.ChaosDelay,
		DelayMult: o.ChaosDelayMult,
		Reorder:   o.ChaosReorder,
	}
	if p.Delay > 0 && p.DelayMult == 0 {
		p.DelayMult = 10
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// runCluster executes one -cluster simulation and prints the result.
func runCluster(o clusterOptions, jsonOut bool, timeline string, tlCap int) {
	cfg, err := buildClusterConfig(o)
	if err != nil {
		log.Fatal(err)
	}
	var tl *obs.Timeline
	if timeline != "" {
		tl = obs.NewTimeline(tlCap)
		cfg.Timeline = tl
	}
	runOne := cluster.Run
	if o.Audit {
		runOne = cluster.RunAudited
	}
	res, err := runOne(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if tl != nil {
		f, err := os.Create(timeline)
		if err != nil {
			log.Fatal(err)
		}
		if err := tl.WriteTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if n := tl.Dropped(); n > 0 {
			log.Printf("timeline ring overflowed: %d oldest events dropped (raise -timeline-cap)", n)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}
	st := res.Stats
	fmt.Printf("cluster              %d nodes, %s on %s, R=%d W=%d, %d ranges\n",
		res.Config.Nodes, res.Variant, res.Config.Structure, res.Config.Replicas,
		res.Config.Quorum, st.Ranges)
	fmt.Printf("network              RTT %d cycles, jitter %.0f%%\n",
		res.Config.NetRTT, res.Config.NetJitter*100)
	fmt.Printf("offered/completed    %d / %d (dropped %d, failed %d, unavailable %d)\n",
		st.Offered, st.Completed, st.Dropped, st.Failed, st.Unavailable)
	fmt.Printf("goodput              %.1f req/Mcycle over %d cycles\n", res.Throughput, st.SpanCycles)
	fmt.Printf("latency p50/p95      %d / %d cycles (to the W-th durable ack)\n", res.P50, res.P95)
	fmt.Printf("latency p99/p99.9    %d / %d cycles (mean %.0f, max %d)\n", res.P99, res.P999, res.Mean, res.Hist.Max)
	fmt.Printf("replication          %d replicate msgs, %d acks, %d network msgs total\n",
		st.ReplMsgs, st.Acks, st.NetMsgs)
	fmt.Printf("group commit         K=%d: %d commit groups\n", res.Config.BatchMax, st.Groups)
	fmt.Printf("faults               %d crashes, %d failovers, %d rejoins (%d catch-up ops)\n",
		st.Crashes, st.Failovers, st.Rejoins, st.CatchupOps)
	fmt.Printf("rebalancing          %d primaryship moves\n", st.Rebalances)
	if res.Config.Chaos.Enabled() {
		fmt.Printf("chaos fabric         %d dropped, %d cut, %d dupped, %d delayed, %d reordered\n",
			st.NetChaosDropped, st.NetChaosCut, st.NetChaosDupped, st.NetChaosDelayed, st.NetChaosReordered)
	}
	if res.Config.ReqDeadline > 0 {
		fmt.Printf("client robustness    %d shed, %d timed out, %d retries, %d hedges\n",
			st.Shed, st.TimedOut, st.Retries, st.Hedges)
	}
	if res.Config.HeartbeatEvery > 0 {
		fmt.Printf("failure detection    %d heartbeats, %d suspicions (%d wrong), %d repair ops\n",
			st.Heartbeats, st.Suspicions, st.WrongSuspicions, st.RepairOps)
	}
	if res.Audit != nil {
		fmt.Printf("audit                %d acked updates checked, %d violations\n",
			res.Audit.Checked, res.Audit.Total)
		for _, v := range res.Audit.Violations {
			fmt.Printf("  VIOLATION          %s\n", v)
		}
	}
	for _, nd := range res.PerNode {
		rejoin := ""
		if nd.RejoinCycles > 0 {
			rejoin = fmt.Sprintf(", rejoined after %d cycles (%d streamed)", nd.RejoinCycles, nd.CatchupOps)
		}
		fmt.Printf("node %-2d              %s, %d collected, %d acks, p99 %d%s\n",
			nd.Node, nd.State, nd.Collected, nd.Acks, nd.P99, rejoin)
	}
}
