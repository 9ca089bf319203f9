package multicore

// Key orders scheduler events: by cycle, then tie-break class, then index
// (lower first each time). Run, internal/service and internal/cluster all
// pick their next event by this one rule.
type Key struct {
	T     uint64
	Class int
	Idx   int
}

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool {
	if k.T != o.T {
		return k.T < o.T
	}
	if k.Class != o.Class {
		return k.Class < o.Class
	}
	return k.Idx < o.Idx
}

// Picker finds the earliest of the (distinct) events offered to it and
// the runner-up. The zero value is empty.
type Picker struct {
	best, next Key
	n          int
}

// Offer adds one pending event.
func (p *Picker) Offer(k Key) {
	switch {
	case p.n == 0:
		p.best = k
	case k.Less(p.best):
		p.best, p.next = k, p.best
	case p.n == 1 || k.Less(p.next):
		p.next = k
	}
	p.n++
}

// Best returns the earliest offered event; ok is false when none was.
func (p *Picker) Best() (k Key, ok bool) { return p.best, p.n > 0 }

// Horizon returns the runner-up event, or a key after every event when
// only one was offered. Competing events stay frozen while the best one
// runs (or, in internal/cluster, are re-checked by the caller), so a core
// that won the pick keeps stepping while its own key is below the
// horizon: it would win a fresh pick anyway.
func (p *Picker) Horizon() Key {
	if p.n < 2 {
		return Key{T: ^uint64(0), Class: int(^uint(0) >> 1)}
	}
	return p.next
}

// StepBatch steps core i while its key {Now, self.Class, self.Idx} stays
// below horizon and stop (when non-nil) reports false after each step. It
// returns false once the core drained.
func (s *Sim) StepBatch(i int, self, horizon Key, stop func(now uint64) bool) bool {
	c := s.cores[i].cpu
	for s.StepCore(i) {
		self.T = c.Now()
		if !self.Less(horizon) || (stop != nil && stop(self.T)) {
			return true
		}
	}
	return false
}
