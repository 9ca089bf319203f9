// Lane is the admission discipline of one serving core, shared by a
// service shard and a fleet node: the FIFO, the group-commit trigger, the
// run layout over the core's Backend, the batched step loop under the
// event Picker's horizon, and the in-flight commit groups that complete,
// oldest first, as their sentinel stores commit. Each layer keeps only its
// own bookkeeping around it (service: the queue-depth integral; cluster:
// sequence gates, the durable log, catch-up and failure detection), so the
// two cannot drift apart in how a request is batched, run or timestamped.
package service

import (
	"fmt"
	"slices"

	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/multicore"
	"specpersist/internal/pstruct"
)

// Item is what a Lane queues: one operation and the cycle it was enqueued.
type Item interface {
	Enqueued() uint64
	Op() Op
}

// LaneConfig is one lane's machine and backend recipe plus its
// group-commit policy, resolved from a service or cluster Config.
type LaneConfig struct {
	Structure     string
	Variant       core.Variant
	Warmup        int
	Keyspace      int
	LogCap        int
	Seed          int64 // run seed; lane id warms up from Seed + id*7919 + 1
	SSBEntries    int
	BatchMax      int
	BatchDeadline uint64
	OpOverhead    int // negative = none
}

// ValidateServing rejects an arrival rate, variant or structure that no
// serving layer can simulate; layer prefixes the error.
func ValidateServing(layer string, rate float64, v core.Variant, structure string) error {
	if !(rate > 0) {
		return fmt.Errorf("%s: arrival rate must be positive, got %g req/Mcycle", layer, rate)
	}
	switch v {
	case core.VariantLogP, core.VariantLogPSf, core.VariantSP:
	default:
		return fmt.Errorf("%s: variant %s has no durable commit; use Log+P, Log+P+Sf or SP", layer, v)
	}
	if !slices.Contains(pstruct.AllNames(), structure) {
		return fmt.Errorf("%s: unknown structure %q (valid: %v)", layer, structure, pstruct.AllNames())
	}
	return nil
}

// MachineOptions returns the variant's per-core machine: the Table 2
// core, with SP hardware (and the SSB size override) when speculative.
func (lc LaneConfig) MachineOptions() core.Options {
	opts := core.DefaultOptions()
	if lc.Variant.Speculative() {
		opts.CPU.SP = cpu.DefaultSPConfig()
		if lc.SSBEntries > 0 {
			opts.CPU.SP.SSBEntries = lc.SSBEntries
		}
	}
	return opts
}

// Lane is one serving core's admission state over its Backend.
type Lane[T Item] struct {
	Be   *Backend
	Sim  *multicore.Sim
	Core int
	// Busy is set while the core executes a run, begun at RunStart.
	Busy     bool
	RunStart uint64

	cfg      LaneConfig
	queue    []T
	inflight [][]T // the run's commit groups in program order
	ops      []Op  // AppendGroup scratch
}

// NewLane builds lane id on core of sim: a warmed-up Backend displaced
// into address window core, its metrics in the core's registry, and
// onDurable bound to its sentinel commits (the layer calls Complete there).
func NewLane[T Item](lc LaneConfig, sim *multicore.Sim, core, id int, onDurable func()) (*Lane[T], error) {
	be, err := NewBackend(BackendConfig{
		Structure: lc.Structure,
		Level:     lc.Variant.Level(),
		Warmup:    lc.Warmup,
		Keyspace:  lc.Keyspace,
		LogCap:    lc.LogCap,
		Seed:      lc.Seed + int64(id)*7919 + 1,
		Coalesce:  lc.BatchMax > 1,
	}, core, sim.Registry(core))
	if err != nil {
		return nil, err
	}
	be.BindSentinel(sim, core, onDurable)
	return &Lane[T]{Be: be, Sim: sim, Core: core, cfg: lc}, nil
}

// Now is the lane core's clock.
func (l *Lane[T]) Now() uint64 { return l.Sim.Core(l.Core).Now() }

// Len is the queue depth.
func (l *Lane[T]) Len() int { return len(l.queue) }

// Push enqueues one item.
func (l *Lane[T]) Push(x T) { l.queue = append(l.queue, x) }

// Inflight is the number of admitted commit groups not yet durable.
func (l *Lane[T]) Inflight() int { return len(l.inflight) }

// Abandon drops the queue and every in-flight group and idles the lane,
// as a crash does.
func (l *Lane[T]) Abandon() { l.queue, l.inflight, l.Busy = nil, nil, false }

// StartTime returns the cycle at which the idle lane's next run begins
// (the queue must be non-empty). The batch-full trigger fires the moment
// the K-th item is enqueued — not at the head's enqueue, which would start
// the run in the past — and the deadline trigger once the head has waited
// out the batch deadline. Either way the core must also be free.
func (l *Lane[T]) StartTime() uint64 {
	ready := l.queue[0].Enqueued() + l.cfg.BatchDeadline
	if len(l.queue) >= l.cfg.BatchMax {
		ready = l.queue[len(l.queue)-1].Enqueued()
	}
	return max(l.Now(), ready)
}

// Start admits the whole queue at cycle t as one back-to-back trace: per
// item an application preamble (dependent ALU chain) plus the structure
// operation, in commit groups of up to BatchMax, each closed by the
// Backend's group boundary. It returns the number of groups and how many
// items shared a group with others.
func (l *Lane[T]) Start(t uint64) (groups, grouped uint64) {
	run := l.queue
	l.queue = nil
	l.Be.BeginRun()
	for len(run) > 0 {
		n := min(len(run), l.cfg.BatchMax)
		group := run[:n]
		run = run[n:]
		l.ops = l.ops[:0]
		for _, x := range group {
			l.ops = append(l.ops, x.Op())
		}
		l.Be.AppendGroup(l.ops, max(l.cfg.OpOverhead, 0))
		l.inflight = append(l.inflight, group)
		groups++
		if n > 1 {
			grouped += uint64(n)
		}
	}
	l.Be.EndRun()
	l.Sim.Core(l.Core).AdvanceTo(t)
	l.Sim.StartCore(l.Core, &l.Be.Buf)
	l.Busy, l.RunStart = true, t
	return groups, grouped
}

// Step advances the busy core in one multicore.Sim.StepBatch: while its
// key self, re-timed each step, stays below horizon and stop reports
// false. It reports whether the core drained, which ends the run.
func (l *Lane[T]) Step(self, horizon multicore.Key, stop func(now uint64) bool) (drained bool) {
	if l.Sim.StepBatch(l.Core, self, horizon, stop) {
		return false
	}
	l.Busy = false
	return true
}

// Complete pops the oldest in-flight group, durable at the core's current
// cycle done; ok is false when no group was in flight.
func (l *Lane[T]) Complete() (group []T, done uint64, ok bool) {
	if len(l.inflight) == 0 {
		return nil, 0, false
	}
	group = l.inflight[0]
	l.inflight = l.inflight[1:]
	return group, l.Now(), true
}
