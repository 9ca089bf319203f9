package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"specpersist/internal/workload"
)

// Engine executes job batches on a worker pool, consulting the result
// cache before simulating. The zero value runs serially with no cache and
// no progress output.
type Engine struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, is consulted before and written after every
	// run.
	Cache *Cache
	// Progress, when non-nil, receives one line per completed job
	// (timing, completed/total, ETA). Point it at os.Stderr for CLIs.
	Progress io.Writer
}

// JobResult is one job's outcome plus execution metadata.
type JobResult struct {
	Job     workload.Job
	Result  workload.Result
	Cached  bool          // served from the result cache
	Elapsed time.Duration // wall time for this job (≈0 when cached)
}

func (e *Engine) workers() int {
	if e.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Workers
}

// Run executes every job and returns the outcomes in job order. Result
// order, and the results themselves, are independent of the worker count:
// workload.Run is deterministic and shares no state between jobs. The
// first job error aborts the sweep (already-started jobs finish; their
// results are still cached).
func (e *Engine) Run(jobs []workload.Job) ([]JobResult, error) {
	out := make([]JobResult, len(jobs))
	prog := NewProgress(e.Progress, "sweep", "jobs", len(jobs))
	err := Pool(e.workers(), len(jobs), func(i int) error {
		j := jobs[i]
		start := time.Now()
		if r, ok := e.Cache.Get(j); ok {
			out[i] = JobResult{Job: j, Result: r, Cached: true, Elapsed: time.Since(start)}
			prog.Done(j.Label(), out[i].Elapsed, "cached")
			return nil
		}
		r, err := j.Run()
		if err != nil {
			return fmt.Errorf("job %s: %w", j.Label(), err)
		}
		if err := e.Cache.Put(j, r); err != nil {
			return err
		}
		out[i] = JobResult{Job: j, Result: r, Elapsed: time.Since(start)}
		prog.Done(j.Label(), out[i].Elapsed, "")
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunJobs implements workload.Runner, so an Engine can slot directly into
// the figures Suite as its executor.
func (e *Engine) RunJobs(jobs []workload.Job) ([]workload.Result, error) {
	jrs, err := e.Run(jobs)
	if err != nil {
		return nil, err
	}
	results := make([]workload.Result, len(jrs))
	for i, jr := range jrs {
		results[i] = jr.Result
	}
	return results, nil
}

var _ workload.Runner = (*Engine)(nil)

// Progress prints one line per completed item of a batch: the batch name,
// completed/total, the item's label and wall time, the completion rate and
// an ETA, e.g.
//
//	sweep: [3/12] LL/SP/s0.002 41ms 23.8 jobs/s eta 378ms
//
// Lines are serialized, so workers may call Done concurrently. A nil
// *Progress (NewProgress with a nil writer) prints nothing.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	name  string
	unit  string
	total int
	count int
	start time.Time
}

// NewProgress starts a progress line for total items of the named batch,
// counted in unit ("jobs", "programs"); it returns nil when w is nil.
func NewProgress(w io.Writer, name, unit string, total int) *Progress {
	if w == nil {
		return nil
	}
	return &Progress{w: w, name: name, unit: unit, total: total, start: time.Now()}
}

// Done records one completed item that took d; a non-empty note is
// printed in parentheses after its time.
func (p *Progress) Done(label string, d time.Duration, note string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count++
	if note != "" {
		note = " (" + note + ")"
	}
	elapsed := time.Since(p.start)
	rate := float64(p.count) / elapsed.Seconds()
	eta := ""
	if p.count < p.total {
		remaining := time.Duration(float64(elapsed) / float64(p.count) * float64(p.total-p.count))
		eta = fmt.Sprintf(" eta %s", remaining.Round(100*time.Millisecond))
	}
	fmt.Fprintf(p.w, "%s: [%d/%d] %s %s%s %.1f %s/s%s\n",
		p.name, p.count, p.total, label, d.Round(time.Millisecond), note, rate, p.unit, eta)
}
