package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"specpersist/internal/cache"
	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/memctl"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
	"specpersist/internal/trace"
	"specpersist/internal/txn"
	"specpersist/internal/workload"
)

// gridVariants are the paper-grid columns: the same core without barriers,
// with the sfence-pcommit-sfence barrier, and with SP speculating past it.
var gridVariants = []core.Variant{core.VariantBase, core.VariantLogPSf, core.VariantSP}

// cellOutput is one cell's simulated output.
type cellOutput struct {
	Stats   cpu.Stats
	Metrics obs.Snapshot
}

// newPaperGrid builds the paper-grid workload: every Table 1 structure under
// Base, Log+P+Sf and SP through workload.Run, one cell at a time.
func newPaperGrid(seed int64, scale float64) *load {
	type cell struct {
		b workload.Bench
		v core.Variant
	}
	var cells []cell
	for _, b := range workload.Table1() {
		for _, v := range gridVariants {
			cells = append(cells, cell{b, v})
		}
	}
	w := &load{name: "paper-grid", rateName: "sim_instrs_per_s", rate: workRate}
	for _, c := range cells {
		w.units = append(w.units, unit{
			name: c.b.Name + "/" + c.v.String(),
			run: func() (outcome, error) {
				r, err := workload.Run(c.b, workload.RunConfig{Variant: c.v, Scale: scale, Seed: seed})
				return cellOutcome(r.Stats, r.Metrics, err), nil
			},
		})
	}
	w.warmup = w.units[:2*len(gridVariants)] // the first two structures' rows
	w.check = func(outs []outcome) verdict { return checkGrid(outs, len(workload.Table1())) }
	w.traced = func(rec record) []unit {
		clock := clockCost()
		units := make([]unit, len(cells))
		for i, c := range cells {
			units[i] = unit{
				name: w.units[i].name,
				run: func() (outcome, error) {
					stats, m, err := rebuildCell(c.b, c.v, scale, seed, rec, clock)
					return cellOutcome(stats, m, err), nil
				},
			}
		}
		return units
	}
	return w
}

func cellOutcome(stats cpu.Stats, m obs.Snapshot, err error) outcome {
	o := outcome{attempted: 1, work: float64(stats.Committed), sim: cellOutput{stats, m}}
	if err != nil {
		o.failed = 1
		o.bad = []string{err.Error()}
	}
	return o
}

// checkGrid derives the Figure 8 overheads and the timing-core counters
// from one pass (rows of len(gridVariants) cells per structure).
func checkGrid(outs []outcome, structures int) verdict {
	v := verdict{sim: make(map[string]float64), counts: make(map[string]any)}
	if len(outs) != structures*len(gridVariants) {
		v.bad = append(v.bad, fmt.Sprintf("paper-grid: %d cells, want %d", len(outs), structures*len(gridVariants)))
		return v
	}
	var logSP, logSf float64
	var sum obs.Snapshot = make(obs.Snapshot)
	for row := 0; row < structures; row++ {
		var cycles [3]float64
		for col := range gridVariants {
			o := outs[row*len(gridVariants)+col]
			v.bad = append(v.bad, o.bad...)
			c := o.sim.(cellOutput)
			cycles[col] = float64(c.Stats.Cycles)
			for k, x := range c.Metrics {
				fold(sum, k, x)
			}
		}
		logSf += math.Log(cycles[1] / cycles[0])
		logSP += math.Log(cycles[2] / cycles[0])
	}
	n := float64(structures)
	v.sim["sp_overhead_pct"] = 100 * (math.Exp(logSP/n) - 1)
	v.sim["logpsf_overhead_pct"] = 100 * (math.Exp(logSf/n) - 1)
	timingCounters(v.sim, sum)
	v.counts["cells"] = len(outs)
	v.counts["committed_instrs"] = sum["cpu.committed"]
	return v
}

// fold adds one counter into a sum over runs; high-water marks take the
// maximum instead.
func fold(sum obs.Snapshot, k string, x uint64) {
	if strings.Contains(k, ".max") {
		sum[k] = max(sum[k], x)
		return
	}
	sum[k] += x
}

// timingCounters derives the simulated timing-core and memctl figures from
// summed obs counters (keys without any per-node prefix).
func timingCounters(dst map[string]float64, m obs.Snapshot) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	dst["cpu.ipc"] = ratio(m["cpu.committed"], m["cpu.cycles"])
	dst["cpu.stall.fence_cycles"] = float64(m["cpu.stall.fence_cycles"])
	dst["cpu.stall.fetchq_cycles"] = float64(m["cpu.stall.fetchq_cycles"])
	dst["sp.rollbacks"] = float64(m["cpu.sp.rollbacks"])
	dst["sp.rollback_cycle_frac"] = ratio(m["cpu.sp.rollback_cycles"], m["cpu.cycles"])
	dst["sp.bloom_fp_rate"] = ratio(m["cpu.sp.bloom.false_positives"], m["cpu.sp.bloom.queries"])
	dst["sp.ssb.full_stalls"] = float64(m["cpu.sp.ssb.full_stalls"])
	dst["cache.l1.miss_rate"] = ratio(m["cache.l1.misses"], m["cache.l1.hits"]+m["cache.l1.misses"])
	dst["cache.l3.misses"] = float64(m["cache.l3.misses"])
	dst["mem.wpq.stalls"] = float64(m["mem.wpq.stalls"])
	dst["mem.wpq.max"] = float64(m["mem.wpq.max"])
}

// --- The traced rebuild of one cell ---------------------------------------
//
// rebuildCell repeats workload.Run from public pieces so that the calls into
// trace generation and the memory controller can be timed: exec, txn and
// pstruct build and populate the structure, a trace.Builder feeds a timing
// trace.BlockSource, and cpu.New runs over cache.New and a timing
// memctl.Memory. Its cpu.Stats and obs snapshot must equal workload.Run's;
// the pass digest comparison enforces that.

// scaled, structConfig and keyFor mirror the workload package's sizing.
func scaled(n int, s float64, minimum int) int {
	v := int(float64(n) * s)
	if v < minimum {
		return minimum
	}
	return v
}

func structConfig(b workload.Bench, s float64) pstruct.Config {
	cfg := pstruct.DefaultConfig()
	switch b.Name {
	case "GH":
		cfg.GraphVerts = scaled(4096, s, 64)
	case "HM":
		cfg.HashCapacity = scaled(1<<21, s, 64)
	case "SS":
		cfg.Strings = scaled(120000, s, 16)
	}
	return cfg
}

func keyFor(b workload.Bench, rng *rand.Rand, keyspace uint64) uint64 {
	if b.Name == "SS" || b.Name == "GH" {
		return rng.Uint64()
	}
	return rng.Uint64() % keyspace
}

// timedSource regenerates the traced operations on demand, like the
// workload package's source, and times every regeneration.
type timedSource struct {
	buf  trace.Buffer
	next func() bool
	gen  time.Duration
	ops  int
}

func (s *timedSource) refill() bool {
	s.buf.Reset()
	start := time.Now()
	ok := s.next()
	s.gen += time.Since(start)
	s.ops++
	return ok
}

func (s *timedSource) Next() (isa.Instr, bool) {
	for {
		if in, ok := s.buf.Next(); ok {
			return in, true
		}
		if !s.refill() {
			return isa.Instr{}, false
		}
	}
}

func (s *timedSource) NextBlock() []isa.Instr {
	for {
		if blk := s.buf.NextBlock(); len(blk) > 0 {
			return blk
		}
		if !s.refill() {
			return nil
		}
	}
}

// timedMemory times every call the cache and core make into the memory
// controller.
type timedMemory struct {
	memctl.Memory
	spent time.Duration
	calls int
}

func (m *timedMemory) Read(addr, now uint64) uint64 {
	start := time.Now()
	r := m.Memory.Read(addr, now)
	m.spent += time.Since(start)
	m.calls++
	return r
}

func (m *timedMemory) EnqueueWrite(addr, now uint64) uint64 {
	start := time.Now()
	r := m.Memory.EnqueueWrite(addr, now)
	m.spent += time.Since(start)
	m.calls++
	return r
}

func (m *timedMemory) Pcommit(now uint64) uint64 {
	start := time.Now()
	r := m.Memory.Pcommit(now)
	m.spent += time.Since(start)
	m.calls++
	return r
}

// variantKey names a variant in per-variant metric names.
func variantKey(v core.Variant) string {
	switch v {
	case core.VariantBase:
		return "base"
	case core.VariantLogPSf:
		return "logpsf"
	case core.VariantSP:
		return "sp"
	}
	return v.String()
}

func rebuildCell(b workload.Bench, v core.Variant, s float64, seed int64, rec record, clock float64) (cpu.Stats, obs.Snapshot, error) {
	popStart := time.Now()
	env := exec.New()
	env.Level = v.Level()
	var mgr *txn.Manager
	if v.Transactional() {
		mgr = txn.NewManager(env, b.LogCap)
	}
	st := pstruct.Build(b.Name, env, mgr, structConfig(b, s))
	keyspace := b.Keyspace
	if b.Name != "GH" && b.Name != "SS" && b.Name != "LL" {
		keyspace = uint64(scaled(int(b.Keyspace), s, 128))
	}
	rng := rand.New(rand.NewSource(seed + 1))
	initOps := scaled(b.InitOps, s, 16)
	switch b.Name {
	case "SS":
		initOps = 0
	case "LL":
		initOps = b.InitOps
	}
	for i := 0; i < initOps; i++ {
		st.Apply(keyFor(b, rng, keyspace))
	}
	env.M.PersistAll()
	if err := st.Check(); err != nil {
		return cpu.Stats{}, nil, fmt.Errorf("%s: after init: %w", b.Name, err)
	}
	rec.add("populate.host_s", time.Since(popStart).Seconds())

	// The functional counters before the measured phase, so per-op figures
	// count only traced operations.
	fn := obs.NewRegistry()
	env.M.Register(fn)
	if mgr != nil {
		mgr.Register(fn)
	}
	before := fn.Snapshot()

	simStart := time.Now()
	simOps := scaled(b.SimOps, s, 8)
	opRng := rand.New(rand.NewSource(seed + 2))
	src := &timedSource{}
	bld := trace.NewBuilder(&src.buf)
	env.SetBuilder(bld)
	done := 0
	src.next = func() bool {
		if done >= simOps {
			return false
		}
		done++
		r := bld.ALU(0)
		for i := 1; i < workload.DefaultOpOverhead; i++ {
			r = bld.ALU(0, r)
		}
		st.Apply(keyFor(b, opRng, keyspace))
		return true
	}

	opts := core.DefaultOptions()
	if v.Speculative() {
		opts.CPU.SP = cpu.DefaultSPConfig()
	} else {
		opts.CPU.SP = cpu.SPConfig{}
	}
	mc := &timedMemory{Memory: memctl.New(opts.Mem)}
	h := cache.New(opts.Cache, mc)
	c := cpu.New(opts.CPU, h, mc)
	reg := obs.NewRegistry()
	c.Register(reg)
	h.Register(reg)
	mc.Register(reg)
	env.M.Register(reg)
	if mgr != nil {
		mgr.Register(reg)
	}
	stats := c.Run(src)
	simTime := time.Since(simStart).Seconds()
	if err := st.Check(); err != nil {
		return cpu.Stats{}, nil, fmt.Errorf("%s: after sim: %w", b.Name, err)
	}

	after := fn.Snapshot()
	gen := src.gen.Seconds() - float64(src.ops)*clock
	mem := mc.spent.Seconds() - float64(mc.calls)*clock
	// Each timed call reads the clock twice; one read falls inside the
	// span subtracted above, the other lands in the remainder.
	cpuTime := simTime - gen - mem - float64(src.ops+mc.calls)*clock
	rec.add("tracegen.host_s", gen)
	rec.add("tracegen.ops", float64(simOps))
	rec.add("memctl.host_s", mem)
	rec.add("cpu.host_s", cpuTime)
	vk := variantKey(v)
	rec.add("cpu.host_s."+vk, cpuTime)
	rec.add("cpu.instrs."+vk, float64(stats.Committed))
	if v.Transactional() {
		rec.add("txn.entries", float64(after["txn.entries"]-before["txn.entries"]))
		rec.add("txn.ops", float64(simOps))
	}
	rec.add("pmem.clwbs", float64(after["pmem.clwbs"]-before["pmem.clwbs"]))
	m := reg.Snapshot()
	rec.add("mem.pcommits", float64(m["mem.pcommits"]))
	return stats, m, nil
}
