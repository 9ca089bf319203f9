// The -cluster mode: one replicated-fleet simulation (consistent-hash
// sharding, quorum-gated durability, crash/failover/rejoin) and its
// accounting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"specpersist/internal/chaos"
	"specpersist/internal/cluster"
)

// runCluster runs one -cluster simulation: the fleet's own flags plus the
// serving flags it shares with -service.
func (c *cli) runCluster() (report, error) {
	svc, cfg := c.svc, c.fleet
	// Config.Validate reads 0 as the default; at the CLI the defaults are
	// already set, so an explicit 0 is a mistake.
	if cfg.Nodes < 1 {
		return report{}, fmt.Errorf("-nodes must be at least 1, got %d", cfg.Nodes)
	}
	if cfg.VNodes < 1 {
		return report{}, fmt.Errorf("-vnodes must be at least 1 virtual node, got %d", cfg.VNodes)
	}
	// Config.Validate rejects this too, without naming the flag.
	if cfg.HedgeQuantile < 0 || cfg.HedgeQuantile >= 1 {
		return report{}, fmt.Errorf("-hedge-quantile must be in [0, 1), got %g", cfg.HedgeQuantile)
	}
	cfg.Structure, cfg.Variant, cfg.Seed, cfg.SSBEntries, cfg.OpOverhead, cfg.Timeline =
		svc.Structure, svc.Variant, svc.Seed, svc.SSBEntries, svc.OpOverhead, svc.Timeline
	cfg.Rate, cfg.Requests, cfg.Warmup, cfg.QueueCap, cfg.GetFrac, cfg.Keyspace =
		svc.Rate, svc.Requests, svc.Warmup, svc.QueueCap, svc.GetFrac, svc.Keyspace
	cfg.BatchMax, cfg.BatchDeadline, cfg.LogCap = svc.BatchMax, svc.BatchDeadline, svc.LogCap
	var err error
	if cfg.Chaos, err = c.chaosPlan(); err != nil {
		return report{}, err
	}
	runOne := cluster.Run
	if c.audit {
		runOne = cluster.RunAudited
	}
	res, err := runOne(cfg)
	if err != nil {
		return report{}, err
	}
	return report{doc: res, text: func(w io.Writer) { clusterText(w, res) }}, nil
}

// chaosPlan resolves the chaos flags into a plan: a plan file replays
// verbatim (the shrinker's minimal reproducers), the inline dials assemble
// one ad hoc, and giving both is an error.
func (c *cli) chaosPlan() (*chaos.Plan, error) {
	var set []string
	c.fs.Visit(func(f *flag.Flag) {
		if c.readers[f.Name]&chaosDial != 0 {
			set = append(set, "-"+f.Name)
		}
	})
	file, dials := c.planFile, c.dials
	if file != "" {
		if len(set) > 0 {
			return nil, fmt.Errorf("-chaos-plan is a complete plan; flags %v clash with it", set)
		}
		blob, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("-chaos-plan: %w", err)
		}
		var p chaos.Plan
		if err := json.Unmarshal(blob, &p); err != nil {
			return nil, fmt.Errorf("-chaos-plan %s: %w", file, err)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("-chaos-plan %s: %w", file, err)
		}
		return &p, nil
	}
	if len(set) == 0 {
		return nil, nil
	}
	if dials.Delay > 0 && dials.DelayMult == 0 {
		dials.DelayMult = 10
	}
	if err := dials.Validate(); err != nil {
		return nil, err
	}
	return &dials, nil
}

func clusterText(w io.Writer, res cluster.Result) {
	st := res.Stats
	fmt.Fprintf(w, "cluster              %d nodes, %s on %s, R=%d W=%d, %d ranges\n",
		res.Config.Nodes, res.Variant, res.Config.Structure, res.Config.Replicas,
		res.Config.Quorum, st.Ranges)
	fmt.Fprintf(w, "network              RTT %d cycles, jitter %.0f%%\n",
		res.Config.NetRTT, res.Config.NetJitter*100)
	fmt.Fprintf(w, "offered/completed    %d / %d (dropped %d, failed %d, unavailable %d)\n",
		st.Offered, st.Completed, st.Dropped, st.Failed, st.Unavailable)
	fmt.Fprintf(w, "goodput              %.1f req/Mcycle over %d cycles\n", res.Throughput, st.SpanCycles)
	fmt.Fprintf(w, "latency p50/p95      %d / %d cycles (to the W-th durable ack)\n", res.P50, res.P95)
	fmt.Fprintf(w, "latency p99/p99.9    %d / %d cycles (mean %.0f, max %d)\n", res.P99, res.P999, res.Mean, res.Hist.Max)
	fmt.Fprintf(w, "replication          %d replicate msgs, %d acks, %d network msgs total\n",
		st.ReplMsgs, st.Acks, st.NetMsgs)
	fmt.Fprintf(w, "group commit         K=%d: %d commit groups\n", res.Config.BatchMax, st.Groups)
	fmt.Fprintf(w, "faults               %d crashes, %d failovers, %d rejoins (%d catch-up ops)\n",
		st.Crashes, st.Failovers, st.Rejoins, st.CatchupOps)
	fmt.Fprintf(w, "rebalancing          %d primaryship moves\n", st.Rebalances)
	if res.Config.Chaos.Enabled() {
		fmt.Fprintf(w, "chaos fabric         %d dropped, %d cut, %d dupped, %d delayed, %d reordered\n",
			st.NetChaosDropped, st.NetChaosCut, st.NetChaosDupped, st.NetChaosDelayed, st.NetChaosReordered)
	}
	if res.Config.ReqDeadline > 0 {
		fmt.Fprintf(w, "client robustness    %d shed, %d timed out, %d retries, %d hedges\n",
			st.Shed, st.TimedOut, st.Retries, st.Hedges)
	}
	if res.Config.HeartbeatEvery > 0 {
		fmt.Fprintf(w, "failure detection    %d heartbeats, %d suspicions (%d wrong), %d repair ops\n",
			st.Heartbeats, st.Suspicions, st.WrongSuspicions, st.RepairOps)
	}
	if res.Audit != nil {
		fmt.Fprintf(w, "audit                %d acked updates checked, %d violations\n",
			res.Audit.Checked, res.Audit.Total)
		for _, v := range res.Audit.Violations {
			fmt.Fprintf(w, "  VIOLATION          %s\n", v)
		}
	}
	for _, nd := range res.PerNode {
		rejoin := ""
		if nd.RejoinCycles > 0 {
			rejoin = fmt.Sprintf(", rejoined after %d cycles (%d streamed)", nd.RejoinCycles, nd.CatchupOps)
		}
		fmt.Fprintf(w, "node %-2d              %s, %d collected, %d acks, p99 %d%s\n",
			nd.Node, nd.State, nd.Collected, nd.Acks, nd.P99, rejoin)
	}
}
