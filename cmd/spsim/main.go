// Command spsim runs one benchmark under one variant and prints the timing
// statistics.
//
// Usage:
//
//	spsim -bench LL -variant SP -scale 0.02 -ssb 256 -seed 1
//	spsim -bench LL -variant SP -json      # machine-readable output
//	spsim -bench BT -variant SP -timeline out.json  # Chrome trace
//	spsim -cores 4 -bench HM -mc-frac 1.0  # multi-core conflict engine
//	spsim -service -rate 300 -batch 8      # storage-server simulation
//	spsim -vstore -rate 300 -batch 8       # versioned COW store serving
//	spsim -cluster -replicas 3 -rate 200   # replicated quorum fleet
//	spsim -list                            # enumerate benchmarks and variants
//
// Benchmarks: GH HM LL SS AT BT RT (paper Table 1).
// Variants:   Base, Log, Log+P, Log+P+Sf, SP (paper Figure 8).
//
// With -cores N (N >= 2) the run switches to the multi-core conflict
// engine: N SP cores over a shared backend, each core's committed stores
// probing the others' BLTs (§4.2.2), with the -mc-* flags dialing the
// conflict rate. -expect-rollbacks makes the exit status assert that at
// least one real coherence rollback occurred (CI smoke).
//
// With -service the run switches to the storage-server simulation
// (internal/service): seeded open-loop arrivals at -rate requests per
// million cycles against the -bench structure, a bounded FIFO per shard
// (-cores shards), optional group commit (-batch, -batch-deadline), and
// per-request durable-commit latency percentiles.
//
// With -vstore the run is the same storage-server simulation over the
// versioned copy-on-write tree store (internal/vstore): the structure is
// pinned to VT, each commit group persists as one changeset behind exactly
// two barriers instead of per-op WAL records, and the output adds the
// changeset-commit accounting (versions minted, COW nodes written,
// time-travel reads).
//
// With -cluster the run switches to the replicated fleet (internal/cluster):
// -nodes servers partitioned by a consistent-hash ring, every key range on
// -replicas of them, each update acknowledged only at the -quorum-th
// durable replica, over a seeded network (-net-rtt, -net-jitter), with
// optional crash/recovery (-crash-at, -crash-node, -recover-after) and
// primary rebalancing under skew (-zipf, -rebalance-every). The -chaos-*
// dials (or a -chaos-plan JSON file) inject deterministic network faults —
// drops, duplicates, delay spikes, reorders, partitions, gray nodes —
// against the client robustness stack (-req-deadline, -retry-max,
// -hedge-quantile, -shed-high-water) and heartbeat/lease failure detection
// (-heartbeat-every, -lease-cycles); -audit reports invariant breaches in
// the result instead of failing the run.
//
// Every flag is registered once, with the modes that read it. A flag set
// explicitly for a mode that does not read it is an error naming every
// such flag, never a silently ignored setting. The modes read:
//
//	every mode   -seed -ssb -op-overhead -json -timeline -timeline-cap -list
//	benchmark    -bench -variant -scale -checkpoints -banks
//	-cores N     -bench -cores -checkpoints -banks -mc-* -expect-rollbacks
//	-service     -service -bench -variant -cores, the serving flags
//	             (-rate -requests -warmup -queue-cap -batch -batch-deadline
//	             -get-frac -keyspace), -log-cap, -process -burst-frac
//	             -burst-period
//	-vstore      -vstore -variant -cores, the serving flags, -process
//	             -burst-frac -burst-period
//	-cluster     -cluster -bench -variant, the serving flags, -log-cap and
//	             the fleet, -chaos-* and robustness flags above, -audit
//
// Counts and cycle flags parse as unsigned, so a negative value is a flag
// error rather than "use the default".
//
// The -timeline file is Chrome trace_event JSON: load it at
// chrome://tracing or https://ui.perfetto.dev (1 cycle renders as 1 µs).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"

	"specpersist/internal/chaos"
	"specpersist/internal/cluster"
	"specpersist/internal/core"
	"specpersist/internal/multicore"
	"specpersist/internal/obs"
	"specpersist/internal/service"
	"specpersist/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spsim: ")
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag set has printed the error and the usage
	case err != nil:
		log.Fatal(err)
	}
}

// errUsage marks a command line the flag set could not parse.
var errUsage = errors.New("usage")

// mode is a set of run modes: a flag belongs to the modes that read it.
type mode uint8

const (
	benchMode mode = 1 << iota
	multicoreMode
	serviceMode
	vstoreMode
	clusterMode
	// chaosDial is not a mode: it marks the inline chaos dials, which a
	// -chaos-plan file replaces.
	chaosDial

	allModes = benchMode | multicoreMode | serviceMode | vstoreMode | clusterMode
	serving  = serviceMode | vstoreMode | clusterMode
	machine  = benchMode | multicoreMode
)

// String names the flag that selects the mode.
func (m mode) String() string {
	switch m {
	case multicoreMode:
		return "-cores"
	case serviceMode:
		return "-service"
	case vstoreMode:
		return "-vstore"
	case clusterMode:
		return "-cluster"
	}
	return "-bench"
}

// count is a non-negative int flag: the flag package rejects a negative
// value and names the flag.
type count int

func (c *count) String() string { return strconv.Itoa(int(*c)) }

func (c *count) Set(s string) error {
	n, err := strconv.ParseUint(s, 0, strconv.IntSize-1)
	if err != nil {
		return errors.New("must be a non-negative integer")
	}
	*c = count(n)
	return nil
}

// report is one finished run as the output code needs it.
type report struct {
	doc  any             // the -json document
	text func(io.Writer) // the text summary
	fail error           // returned once the report is written
}

// cli is the command line: the flag set, the modes that read each flag,
// and the configs the flags fill. The service config also holds the flags
// every mode shares (-bench, -seed, -ssb, -op-overhead, -cores); the other
// modes take those fields from it.
type cli struct {
	fs      *flag.FlagSet
	readers map[string]mode

	svc   service.Config
	fleet cluster.Config
	bench workload.RunConfig
	mc    multicore.Workload
	dials chaos.Plan // the inline -chaos-* dials
	banks int

	variant, planFile, timeline                                    string
	tlCap                                                          int
	jsonOut, list, serviceF, vstoreF, clusterF, audit, expectRolls bool
}

// in records that the modes m read the flag name.
func (c *cli) in(m mode, name string) string {
	c.readers[name] = m
	return name
}

// newCLI registers every flag once, with the modes that read it.
func newCLI() *cli {
	c := &cli{
		fs:      flag.NewFlagSet("spsim", flag.ContinueOnError),
		readers: map[string]mode{},
		mc:      multicore.DefaultWorkload(),
	}
	fs, in := c.fs, c.in
	fs.StringVar(&c.svc.Structure, in(allModes&^vstoreMode, "bench"), "LL", "benchmark abbreviation (GH HM LL SS AT BT RT)")
	fs.StringVar(&c.variant, in(allModes&^multicoreMode, "variant"), "SP", "variant: Base, Log, Log+P, Log+P+Sf, SP")
	fs.Float64Var(&c.bench.Scale, in(benchMode, "scale"), workload.DefaultScale, "scale factor for Table 1 op counts (1.0 = paper)")
	fs.Int64Var(&c.svc.Seed, in(allModes, "seed"), 1, "operation stream seed")
	fs.Var((*count)(&c.svc.SSBEntries), in(allModes, "ssb"), "SSB entries for SP (0 = 256)")
	fs.Var((*count)(&c.bench.Checkpoints), in(machine, "checkpoints"), "checkpoint buffer entries for SP (0 = 4)")
	fs.IntVar(&c.svc.OpOverhead, in(allModes, "op-overhead"), 0, "per-op application preamble length (0 = default, -1 = none)")
	fs.Var((*count)(&c.banks), in(machine, "banks"), "NVMM banks (0 = default)")
	fs.BoolVar(&c.jsonOut, in(allModes, "json"), false, "emit the result as JSON")
	fs.StringVar(&c.timeline, in(allModes, "timeline"), "", "write a Chrome trace_event JSON timeline to this file")
	fs.IntVar(&c.tlCap, in(allModes, "timeline-cap"), obs.DefaultTimelineCap, "timeline ring-buffer capacity (events)")
	fs.BoolVar(&c.list, in(allModes, "list"), false, "list valid benchmarks and variants, then exit")

	fs.BoolVar(&c.serviceF, in(serviceMode, "service"), false, "run the storage-server simulation (open-loop arrivals, group commit, tail latency)")
	fs.BoolVar(&c.vstoreF, in(vstoreMode, "vstore"), false, "run the storage-server simulation over the versioned COW tree store (changeset commit, time-travel reads)")
	fs.Float64Var(&c.svc.Rate, in(serving, "rate"), 50, "service: offered load in requests per million cycles")
	fs.StringVar((*string)(&c.svc.Process), in(serviceMode|vstoreMode, "process"), "poisson", "service: arrival process (poisson, bursty)")
	fs.Float64Var(&c.svc.BurstOnFrac, in(serviceMode|vstoreMode, "burst-frac"), 0, "service: bursty ON fraction of each period (0 = default 0.25)")
	fs.Uint64Var(&c.svc.BurstPeriod, in(serviceMode|vstoreMode, "burst-period"), 0, "service: bursty ON+OFF period in cycles (0 = default 32768)")
	fs.IntVar(&c.svc.Requests, in(serving, "requests"), 0, "service: offered request count (0 = default 256)")
	fs.IntVar(&c.svc.Warmup, in(serving, "warmup"), 128, "service: functional warmup operations per shard")
	fs.IntVar(&c.svc.QueueCap, in(serving, "queue-cap"), 0, "service: per-shard FIFO bound (0 = default 64)")
	fs.IntVar(&c.svc.BatchMax, in(serving, "batch"), 1, "service: group-commit limit K (1 = no grouping)")
	fs.Uint64Var(&c.svc.BatchDeadline, in(serving, "batch-deadline"), 0, "service: cycles the queue head waits for co-batching")
	fs.Float64Var(&c.svc.GetFrac, in(serving, "get-frac"), 0.25, "service: fraction of read-only get requests")
	fs.IntVar(&c.svc.Keyspace, in(serving, "keyspace"), 0, "service: request key range (0 = default 128)")
	fs.IntVar(&c.svc.LogCap, in(serviceMode|clusterMode, "log-cap"), 0, "service: per-shard undo-log capacity (0 = structure default)")

	fs.BoolVar(&c.clusterF, in(clusterMode, "cluster"), false, "run the replicated-fleet simulation (sharding, quorum durability, failover)")
	fs.IntVar(&c.fleet.Nodes, in(clusterMode, "nodes"), 3, "cluster: fleet size")
	fs.IntVar(&c.fleet.Replicas, in(clusterMode, "replicas"), 2, "cluster: replication factor R")
	fs.IntVar(&c.fleet.Quorum, in(clusterMode, "quorum"), 0, "cluster: write quorum W (0 = majority of R)")
	fs.IntVar(&c.fleet.VNodes, in(clusterMode, "vnodes"), 8, "cluster: virtual nodes per physical node on the hash ring")
	fs.Float64Var(&c.fleet.ZipfS, in(clusterMode, "zipf"), 0, "cluster: zipfian key-popularity exponent (0 = uniform, else > 1)")
	fs.Uint64Var(&c.fleet.NetRTT, in(clusterMode, "net-rtt"), 0, "cluster: inter-node round trip in cycles (0 = default 800)")
	fs.Float64Var(&c.fleet.NetJitter, in(clusterMode, "net-jitter"), 0.2, "cluster: per-message latency spread in [0, 1)")
	fs.IntVar(&c.fleet.CatchupBatch, in(clusterMode, "catchup-batch"), 0, "cluster: missed updates fetched per catch-up round trip (0 = default 32)")
	fs.Uint64Var(&c.fleet.CrashAt, in(clusterMode, "crash-at"), 0, "cluster: crash -crash-node at this cycle (0 = no crash)")
	fs.IntVar(&c.fleet.CrashNode, in(clusterMode, "crash-node"), 0, "cluster: node index to crash")
	fs.Uint64Var(&c.fleet.RecoverAfter, in(clusterMode, "recover-after"), 0, "cluster: restart the crashed node this many cycles after the crash (0 = stays down)")
	fs.Uint64Var(&c.fleet.RebalanceEvery, in(clusterMode, "rebalance-every"), 0, "cluster: primary-rebalancer period in cycles (0 = off)")

	fs.StringVar(&c.planFile, in(clusterMode, "chaos-plan"), "", "cluster: replay a chaos.Plan JSON file (clashes with the inline -chaos-* dials)")
	fs.Int64Var(&c.dials.Seed, in(clusterMode|chaosDial, "chaos-seed"), 1, "cluster: chaos fate-stream seed")
	fs.Float64Var(&c.dials.Drop, in(clusterMode|chaosDial, "chaos-drop"), 0, "cluster: per-message drop fraction in [0, 1)")
	fs.Float64Var(&c.dials.Dup, in(clusterMode|chaosDial, "chaos-dup"), 0, "cluster: per-message duplication fraction in [0, 1)")
	fs.Float64Var(&c.dials.Delay, in(clusterMode|chaosDial, "chaos-delay"), 0, "cluster: per-message delay-spike fraction in [0, 1)")
	fs.Float64Var(&c.dials.DelayMult, in(clusterMode|chaosDial, "chaos-delay-mult"), 0, "cluster: delay-spike latency multiplier (0 with -chaos-delay = 10)")
	fs.Float64Var(&c.dials.Reorder, in(clusterMode|chaosDial, "chaos-reorder"), 0, "cluster: per-message reorder fraction in [0, 1)")

	fs.Uint64Var(&c.fleet.ReqDeadline, in(clusterMode, "req-deadline"), 0, "cluster: per-request deadline in cycles (0 = none; required under lossy chaos)")
	fs.Var((*count)(&c.fleet.RetryMax), in(clusterMode, "retry-max"), "cluster: idempotent retransmits per update (0 = off)")
	fs.Float64Var(&c.fleet.HedgeQuantile, in(clusterMode, "hedge-quantile"), 0, "cluster: hedge updates at this completion-latency quantile (0 = off)")
	fs.Var((*count)(&c.fleet.ShedHighWater), in(clusterMode, "shed-high-water"), "cluster: shed new requests when the primary queue reaches this depth (0 = off)")
	fs.Uint64Var(&c.fleet.HeartbeatEvery, in(clusterMode, "heartbeat-every"), 0, "cluster: heartbeat period in cycles (0 = oracle failure detection)")
	fs.Uint64Var(&c.fleet.LeaseCycles, in(clusterMode, "lease-cycles"), 0, "cluster: failover after this long without hearing from a primary (0 = 4x heartbeat)")
	fs.BoolVar(&c.audit, in(clusterMode, "audit"), false, "cluster: report invariant breaches in the result instead of failing the run")

	fs.Var((*count)(&c.svc.Cores), in(multicoreMode|serviceMode|vstoreMode, "cores"), "run the multi-core conflict engine with this many SP cores (0 = single-core); with -service, the shard count")
	fs.Float64Var(&c.mc.SharedFrac, in(multicoreMode, "mc-frac"), 0.5, "multicore: probability an op is a shared-table RMW (conflict dial)")
	fs.IntVar(&c.mc.SharedLines, in(multicoreMode, "mc-shared-lines"), 4, "multicore: shared-table lines per core")
	fs.IntVar(&c.mc.Ops, in(multicoreMode, "mc-ops"), 48, "multicore: measured ops per core")
	fs.IntVar(&c.mc.Warmup, in(multicoreMode, "mc-warmup"), 60, "multicore: private-structure warmup ops per core")
	fs.BoolVar(&c.mc.Disjoint, in(multicoreMode, "mc-disjoint"), false, "multicore: partition the shared table per core (zero-conflict control)")
	fs.BoolVar(&c.expectRolls, in(multicoreMode, "expect-rollbacks"), false, "multicore: exit nonzero unless at least one real rollback occurred")
	return c
}

// parse reads args and returns the mode they select. Every explicitly set
// flag the mode does not read is an error.
func (c *cli) parse(args []string) (mode, error) {
	if err := c.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, err
		}
		return 0, fmt.Errorf("%w: %w", errUsage, err)
	}
	if c.fs.NArg() > 0 {
		return 0, fmt.Errorf("unexpected arguments: %v", c.fs.Args())
	}
	m := benchMode
	switch {
	case c.clusterF:
		m = clusterMode
	case c.vstoreF:
		m = vstoreMode
	case c.serviceF:
		m = serviceMode
	case c.svc.Cores >= 2:
		m = multicoreMode
	}
	var foreign []string
	c.fs.Visit(func(f *flag.Flag) {
		if c.readers[f.Name]&m == 0 {
			foreign = append(foreign, "-"+f.Name)
		}
	})
	if len(foreign) > 0 {
		return 0, fmt.Errorf("flags %v do not apply to %s runs", foreign, m)
	}
	return m, nil
}

// run parses args, runs the selected mode and writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	c := newCLI()
	m, err := c.parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	if c.list {
		printList(stdout)
		return nil
	}
	if c.svc.Variant, err = core.ParseVariant(c.variant); err != nil {
		return err
	}
	if m&serving != 0 && c.svc.BatchMax < 1 {
		// The serving layers read 0 as "default", but the flag's default
		// is already 1; an explicit 0 is a mistake, not a request.
		return fmt.Errorf("-batch must be at least 1, got %d", c.svc.BatchMax)
	}
	if c.timeline != "" {
		c.svc.Timeline = obs.NewTimeline(c.tlCap)
	}

	var rep report
	switch m {
	case benchMode:
		rep, err = c.runBench()
	case multicoreMode:
		rep, err = c.runMulticore()
	case serviceMode, vstoreMode:
		rep, err = runServing(c.svc, m == vstoreMode)
	case clusterMode:
		rep, err = c.runCluster()
	}
	if err != nil {
		return err
	}
	if c.svc.Timeline != nil {
		if err := writeTimeline(c.timeline, c.svc.Timeline); err != nil {
			return err
		}
	}
	if c.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep.doc); err != nil {
			return err
		}
	} else {
		rep.text(stdout)
	}
	return rep.fail
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "benchmarks:")
	for _, b := range workload.Table1() {
		fmt.Fprintf(w, "  %-3s %s (InitOps %d, SimOps %d)\n", b.Name, b.Desc, b.InitOps, b.SimOps)
	}
	fmt.Fprintln(w, "variants:")
	for _, v := range core.Variants() {
		fmt.Fprintf(w, "  %s\n", v)
	}
}

// writeTimeline writes the recorded run as a Chrome trace to path.
func writeTimeline(path string, tl *obs.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if n := tl.Dropped(); n > 0 {
		log.Printf("timeline ring overflowed: %d oldest events dropped (raise -timeline-cap)", n)
	}
	return nil
}

// jsonOutput is the benchmark-mode -json document: the resolved run
// identity plus the full simulation result and the stall attribution
// derived from its metrics snapshot.
type jsonOutput struct {
	Bench   string          `json:"bench"`
	Desc    string          `json:"desc"`
	Variant string          `json:"variant"`
	Scale   float64         `json:"scale"`
	Seed    int64           `json:"seed"`
	Result  workload.Result `json:"result"`
	Stalls  []obs.StallLine `json:"stalls,omitempty"`
}

// runBench runs one Table 1 benchmark on the single-core machine.
func (c *cli) runBench() (report, error) {
	svc, rc := c.svc, c.bench
	b, err := workload.FindBench(svc.Structure)
	if err != nil {
		return report{}, err
	}
	opts := core.DefaultOptions()
	if c.banks > 0 {
		opts.Mem.Banks = c.banks
	}
	rc.Variant, rc.Seed, rc.SSBEntries, rc.OpOverhead = svc.Variant, svc.Seed, svc.SSBEntries, svc.OpOverhead
	rc.Options, rc.Timeline = &opts, svc.Timeline
	if err := (workload.Job{Bench: b, Config: rc}).Validate(); err != nil {
		return report{}, err
	}
	r, err := workload.Run(b, rc)
	if err != nil {
		return report{}, err
	}
	v, s := rc.Variant, r.Stats
	doc := jsonOutput{
		Bench:   b.Name,
		Desc:    b.Desc,
		Variant: v.String(),
		Scale:   rc.EffectiveScale(),
		Seed:    rc.Seed,
		Result:  r,
		Stalls:  obs.StallReport(r.Metrics),
	}
	return report{doc: doc, text: func(w io.Writer) {
		fmt.Fprintf(w, "benchmark            %s (%s)\n", b.Name, b.Desc)
		fmt.Fprintf(w, "variant              %s\n", v)
		fmt.Fprintf(w, "simulated operations %d\n", r.SimOps)
		fmt.Fprintf(w, "cycles               %d\n", s.Cycles)
		fmt.Fprintf(w, "committed instrs     %d (IPC %.2f)\n", s.Committed, float64(s.Committed)/float64(s.Cycles))
		fmt.Fprintf(w, "fetch-queue stalls   %d cycles\n", s.FetchQStallCycles)
		fmt.Fprintf(w, "loads/stores/ALU     %d / %d / %d\n", s.Loads, s.Stores, s.ALUs)
		fmt.Fprintf(w, "clwb/pcommit/sfence  %d / %d / %d\n", s.Clwbs, s.Pcommits, s.Sfences)
		fmt.Fprintf(w, "max in-flight pcommits %d\n", s.MaxConcurrentPcommits)
		fmt.Fprintf(w, "stores per pcommit   %.1f\n", s.AvgStoresPerPcommit())
		if v.Speculative() {
			fmt.Fprintf(w, "speculation entries  %d (epochs %d)\n", s.SpecEntries, s.SpecEpochs)
			fmt.Fprintf(w, "checkpoint max/stalls %d / %d\n", s.CheckpointsMaxUsed, s.CheckpointStalls)
			fmt.Fprintf(w, "SSB max used         %d (full stalls %d)\n", s.SSBMaxUsed, s.SSBFullStalls)
			fmt.Fprintf(w, "SSB forwards         %d\n", s.SSBForwards)
			fmt.Fprintf(w, "bloom fp rate        %.4f (%d/%d)\n", s.BloomFalsePositiveRate(), s.BloomFalsePositives, s.BloomQueries)
		}
		fmt.Fprintf(w, "L1/L2/L3 miss        %d / %d / %d\n", s.Cache.L1.Misses, s.Cache.L2.Misses, s.Cache.L3.Misses)
		mcs := s.Mem
		fmt.Fprintf(w, "NVMM reads/writes    %d / %d (coalesced %d)\n", mcs.Reads, mcs.Writes, mcs.Coalesced)
		fmt.Fprintf(w, "WPQ max/stalls       %d / %d\n", mcs.WPQMax, mcs.WPQStalls)
		fmt.Fprintf(w, "\n%s", obs.FormatStallReport(r.Metrics))
	}}, nil
}

// mcJSONOutput is the -json document for a multi-core run.
type mcJSONOutput struct {
	Structure  string          `json:"structure"`
	Cores      int             `json:"cores"`
	SharedFrac float64         `json:"shared_frac"`
	Disjoint   bool            `json:"disjoint"`
	Seed       int64           `json:"seed"`
	Stats      multicore.Stats `json:"stats"`
	Metrics    obs.Snapshot    `json:"metrics"`
}

// runMulticore drives the N-core conflict engine.
func (c *cli) runMulticore() (report, error) {
	svc, w := c.svc, c.mc
	w.Structure, w.Cores, w.Seed, w.OpOverhead = svc.Structure, svc.Cores, svc.Seed, svc.OpOverhead
	cfg := multicore.DefaultConfig()
	if svc.SSBEntries > 0 {
		cfg.Options.CPU.SP.SSBEntries = svc.SSBEntries
	}
	if c.bench.Checkpoints > 0 {
		cfg.Options.CPU.SP.Checkpoints = c.bench.Checkpoints
	}
	if c.banks > 0 {
		cfg.Options.Mem.Banks = c.banks
	}
	cfg.Timeline = svc.Timeline
	res, err := multicore.RunWorkload(w, cfg)
	if err != nil {
		return report{}, err
	}
	st := res.Stats
	rep := report{
		doc: mcJSONOutput{
			Structure:  w.Structure,
			Cores:      w.Cores,
			SharedFrac: w.SharedFrac,
			Disjoint:   w.Disjoint,
			Seed:       w.Seed,
			Stats:      st,
			Metrics:    res.Metrics,
		},
		text: func(out io.Writer) {
			rng := "shared"
			if w.Disjoint {
				rng = "disjoint"
			}
			fmt.Fprintf(out, "multicore            %d cores, %s structure, frac %.2f (%s range)\n",
				w.Cores, w.Structure, w.SharedFrac, rng)
			fmt.Fprintf(out, "probes               %d (filtered %d, delivered %d)\n",
				st.Probes, st.Filtered, st.Delivered)
			fmt.Fprintf(out, "conflicts            %d (deferred %d)\n", st.Conflicts, st.Deferred)
			fmt.Fprintf(out, "rollbacks            %d (%d penalty cycles)\n", st.Rollbacks, st.RollbackCycles)
			for i, cs := range st.PerCore {
				fmt.Fprintf(out, "core %-2d              %d cycles, %d committed, %d rollbacks\n",
					i, cs.Cycles, cs.Committed, cs.Rollbacks)
			}
		},
	}
	if c.expectRolls && st.Rollbacks == 0 {
		rep.fail = fmt.Errorf("expected at least one real rollback, saw none (%d probes, %d conflicts)",
			st.Probes, st.Conflicts)
	}
	return rep, nil
}
