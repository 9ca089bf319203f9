package main

import (
	"fmt"
	"strings"

	"specpersist/internal/cluster"
	"specpersist/internal/obs"
)

// fleetLadder is the fixed open-loop rate ladder, in requests per million
// cycles, from light load to past the knee.
var fleetLadder = []float64{300, 450, 600, 700, 800, 900, 1000}

const (
	// fleetNominal is the ladder rate whose latency is reported.
	fleetNominal = 450
	// fleetP99Limit is the p99 limit (cycles) that defines capacity.
	fleetP99Limit = 10000
)

// fleetSize sets how many requests each rung offers.
type fleetSize struct {
	requests, nominalRequests int
}

// fleetConfig is the fleet of the fleet workload at one rate: HM under SP,
// 3 nodes, R=2, K=1, a quarter of requests read-only gets.
func fleetConfig(seed int64, rate float64, requests int) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Structure = "HM"
	cfg.Nodes, cfg.Replicas, cfg.BatchMax = 3, 2, 1
	cfg.GetFrac = 0.25
	cfg.Rate = rate
	cfg.Requests = requests
	cfg.Seed = seed
	return cfg
}

// newFleet builds the fleet workload: one cluster.Run per ladder rate.
func newFleet(seed int64, size fleetSize) *load {
	w := &load{name: "fleet", rateName: "sim_reqs_per_s", rate: workRate}
	rung := func(rate float64, rec record) unit {
		n := size.requests
		if rate == fleetNominal {
			n = size.nominalRequests
		}
		cfg := fleetConfig(seed, rate, n)
		return unit{
			name: fmt.Sprintf("rate %g", rate),
			run: func() (outcome, error) {
				var r cluster.Result
				var err error
				span := timeIt(func() { r, err = cluster.Run(cfg) })
				if err != nil {
					return outcome{}, err
				}
				st := r.Stats
				if rec != nil {
					rec.add(rateKey("fleet.host_s", rate), span)
					rec.add(rateKey("fleet.requests", rate), float64(st.Offered))
				}
				lost := st.Dropped + st.Failed + st.Unavailable
				return outcome{work: float64(st.Offered), attempted: int(st.Offered), failed: int(lost), sim: r}, nil
			},
		}
	}
	for _, rate := range fleetLadder {
		w.units = append(w.units, rung(rate, nil))
	}
	w.warmup = w.units[:1] // the lightest rate
	w.check = checkFleet
	w.traced = func(rec record) []unit {
		var units []unit
		for _, rate := range fleetLadder {
			units = append(units, rung(rate, rec))
		}
		return units
	}
	return w
}

func rateKey(prefix string, rate float64) string { return fmt.Sprintf("%s.r%g", prefix, rate) }

// checkFleet reads latency at the nominal rate, capacity under the p99
// limit, and the serving counters from one ladder pass.
func checkFleet(outs []outcome) verdict {
	v := verdict{sim: make(map[string]float64), counts: make(map[string]any)}
	var offered, lost, msgs, groups uint64
	sum := make(obs.Snapshot)
	for i, o := range outs {
		r := o.sim.(cluster.Result)
		rate := fleetLadder[i]
		st := r.Stats
		offered += st.Offered
		lost += st.Dropped + st.Failed + st.Unavailable
		msgs += st.NetMsgs
		groups += st.Groups
		if r.Audit != nil && !r.Audit.Clean() {
			v.bad = append(v.bad, fmt.Sprintf("fleet rate %g: %d audit violations", rate, r.Audit.Total))
		}
		if rate == fleetNominal {
			v.sim["lat_p50_cycles"] = float64(r.P50)
			v.sim["lat_p99_cycles"] = float64(r.P99)
			samples := r.Hist.N
			v.sim["fleet.lat_samples"] = float64(samples)
			v.counts["nominal_samples"] = samples
			if beyond := samples / 100; beyond < 10 {
				v.bad = append(v.bad, fmt.Sprintf("fleet: %d samples leave %d beyond p99, want >= 10", samples, beyond))
			}
		}
		p := cluster.SweepPoint{Rate: rate, Variant: r.Variant, Result: r}
		if p.Sustains(fleetP99Limit) && rate > v.sim["capacity_req_per_mcycle"] {
			v.sim["capacity_req_per_mcycle"] = rate
		}
		for k, x := range r.Metrics {
			// Fold "nodeN.coreM.cpu.cycles" and "nodeN.mem.pcommits" into
			// fleet-wide "cpu.cycles" and "mem.pcommits".
			if parts := strings.SplitN(k, ".", 3); strings.HasPrefix(k, "node") && len(parts) == 3 {
				if strings.HasPrefix(parts[1], "core") {
					k = parts[2]
				} else {
					k = parts[1] + "." + parts[2]
				}
			}
			fold(sum, k, x)
		}
	}
	timingCounters(v.sim, sum)
	v.sim["cluster.net_msgs_per_req"] = float64(msgs) / float64(offered)
	v.sim["cluster.groups_per_req"] = float64(groups) / float64(offered)
	v.sim["fleet.failed_frac"] = float64(lost) / float64(offered)
	v.sim["mem.pcommits_per_op"] = float64(sum["mem.pcommits"]) / float64(offered)
	v.sim["txn.entries_per_op"] = float64(sum["txn.entries"]) / float64(offered)
	v.sim["pmem.clwbs_per_op"] = float64(sum["pmem.clwbs"]) / float64(offered)
	v.counts["offered"] = offered
	v.counts["p99_limit_cycles"] = fleetP99Limit
	v.counts["nominal_rate"] = fleetNominal
	return v
}
