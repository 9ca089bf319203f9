package main

import (
	"specpersist/internal/pstruct"
)

// metricDef names one printed metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of every untraced run, whatever the workload.
// units_per_ref_s counts work per reference-host second (see refCalib).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"units_per_ref_s", "1/s", "higher"},
}

// perLayer are the metrics of every traced run. A layer a workload does
// not run reads 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		// Each workload's own host rate and simulated headline.
		{"sim_instrs_per_s", "1/s", "higher"},
		{"sim_reqs_per_s", "1/s", "higher"},
		{"trials_per_s", "1/s", "higher"},
		{"programs_per_s", "1/s", "higher"},
		{"sp_overhead_pct", "%", "lower"},
		{"logpsf_overhead_pct", "%", "lower"},
		{"lat_p50_cycles", "cycles", "lower"},
		{"lat_p99_cycles", "cycles", "lower"},
		{"capacity_req_per_mcycle", "req/Mcycle", "higher"},
		{"fleet.lat_samples", "count", "higher"},
		// Timing core: cpu, sp, cache.
		{"cpu.host_s", "s", "lower"},
		{"cpu.host_ns_per_instr.base", "ns", "lower"},
		{"cpu.host_ns_per_instr.logpsf", "ns", "lower"},
		{"cpu.host_ns_per_instr.sp", "ns", "lower"},
		{"cpu.ipc", "instr/cycle", "higher"},
		{"cpu.stall.fence_cycles", "cycles", "lower"},
		{"cpu.stall.fetchq_cycles", "cycles", "lower"},
		{"sp.rollbacks", "count", "lower"},
		{"sp.rollback_cycle_frac", "fraction", "lower"},
		{"sp.bloom_fp_rate", "fraction", "lower"},
		{"sp.ssb.full_stalls", "count", "lower"},
		{"cache.l1.miss_rate", "fraction", "lower"},
		{"cache.l3.misses", "count", "lower"},
		{"prof.cpu_share", "fraction", "lower"},
		// Memory controller.
		{"memctl.host_s", "s", "lower"},
		{"mem.pcommits_per_op", "count", "lower"},
		{"mem.wpq.stalls", "count", "lower"},
		{"mem.wpq.max", "entries", "lower"},
		{"prof.memctl_share", "fraction", "lower"},
		// Trace generation: pstruct, txn, exec, trace.
		{"tracegen.host_s", "s", "lower"},
		{"tracegen.host_ns_per_op", "ns", "lower"},
		{"populate.host_s", "s", "lower"},
		{"txn.entries_per_op", "count", "lower"},
		{"pmem.clwbs_per_op", "count", "lower"},
		{"prof.tracegen_share", "fraction", "lower"},
		// Functional memory and the Go runtime.
		{"prof.mem_share", "fraction", "lower"},
		{"prof.pmem_share", "fraction", "lower"},
		{"prof.runtime_share", "fraction", "lower"},
		{"gc.cycles_per_unit", "count", "lower"},
		{"gc.alloc_bytes_per_unit", "B", "lower"},
		{"peak_rss_mb", "MB", "lower"},
	}
	// Crash campaigns and the versioned store.
	for _, s := range pstruct.AllNames() {
		ms = append(ms, metricDef{"fault." + s + ".host_ms_per_trial", "ms", "lower"})
	}
	ms = append(ms,
		metricDef{"fault.trials", "count", "higher"},
		metricDef{"fault.recrash_trials", "count", "higher"},
		metricDef{"fault.torn_lines", "count", "higher"},
		metricDef{"prof.fault_share", "fraction", "lower"},
	)
	// Serving: cluster, multicore, service.
	for _, rate := range fleetLadder {
		ms = append(ms, metricDef{rateKey("fleet.host_ns_per_req", rate), "ns", "lower"})
	}
	ms = append(ms,
		metricDef{"cluster.net_msgs_per_req", "count", "lower"},
		metricDef{"cluster.groups_per_req", "count", "lower"},
		metricDef{"fleet.failed_frac", "fraction", "lower"},
		metricDef{"prof.cluster_share", "fraction", "lower"},
		metricDef{"prof.multicore_share", "fraction", "lower"},
		// Litmus.
		metricDef{"litmus.ref.host_s", "s", "lower"},
		metricDef{"litmus.machine.host_s", "s", "lower"},
		metricDef{"litmus.ref_states_per_program", "count", "lower"},
		metricDef{"litmus.capped_frac", "fraction", "lower"},
		metricDef{"litmus.rollbacks", "count", "higher"},
		metricDef{"prof.litmus_share", "fraction", "lower"},
		// The host and the tracing itself.
		metricDef{"host.calib_per_s", "1/s", "higher"},
		metricDef{"tracing.overhead_s", "s", "lower"},
	)
	return ms
}()

// profileLayers turns the CPU profile's per-package shares into the prof.*
// metrics. A name ending in "/" stands for every package below it.
func profileLayers(dst map[string]float64, shares map[string]float64) {
	const in = "specpersist/internal/"
	groups := map[string][]string{
		"prof.cpu_share":       {in + "cpu", in + "sp", in + "cache"},
		"prof.memctl_share":    {in + "memctl"},
		"prof.tracegen_share":  {in + "pstruct", in + "txn", in + "exec", in + "trace", in + "vstore"},
		"prof.mem_share":       {in + "mem"},
		"prof.pmem_share":      {in + "pmem"},
		"prof.runtime_share":   {"runtime", "runtime/", "internal/", "sync", "sync/"},
		"prof.fault_share":     {in + "fault"},
		"prof.cluster_share":   {in + "cluster"},
		"prof.multicore_share": {in + "multicore"},
		"prof.litmus_share":    {in + "litmus"},
	}
	for name, pkgs := range groups {
		dst[name] = shareOf(shares, pkgs...)
	}
}

// recordLayers derives per-layer host figures from the medians of the
// traced passes' records.
func recordLayers(dst map[string]float64, rec map[string]float64) {
	per := func(num, den string, scale float64) float64 {
		if rec[den] == 0 {
			return 0
		}
		return rec[num] / rec[den] * scale
	}
	// Per-pass span totals: the paper-grid layers and the litmus explorers.
	for _, k := range []string{"cpu.host_s", "memctl.host_s", "tracegen.host_s", "populate.host_s", "litmus.ref.host_s", "litmus.machine.host_s"} {
		dst[k] = rec[k]
	}
	if rec["tracegen.ops"] > 0 {
		dst["tracegen.host_ns_per_op"] = per("tracegen.host_s", "tracegen.ops", 1e9)
		dst["txn.entries_per_op"] = per("txn.entries", "txn.ops", 1)
		dst["pmem.clwbs_per_op"] = per("pmem.clwbs", "tracegen.ops", 1)
		dst["mem.pcommits_per_op"] = per("mem.pcommits", "tracegen.ops", 1)
	}
	for _, v := range []string{"base", "logpsf", "sp"} {
		dst["cpu.host_ns_per_instr."+v] = per("cpu.host_s."+v, "cpu.instrs."+v, 1e9)
	}
	// fleet: one span per ladder rate.
	for _, rate := range fleetLadder {
		dst[rateKey("fleet.host_ns_per_req", rate)] = per(rateKey("fleet.host_s", rate), rateKey("fleet.requests", rate), 1e9)
	}
	// crash-campaign: one span per structure.
	for _, s := range pstruct.AllNames() {
		if trials := dst["fault."+s+".trials"]; trials > 0 {
			dst["fault."+s+".host_ms_per_trial"] = rec["fault."+s+".host_s"] / trials * 1e3
		}
	}
}
