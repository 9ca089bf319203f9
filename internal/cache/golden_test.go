package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"specpersist/internal/mem"
	"specpersist/internal/memctl"
)

// recordingMemory is a memctl.Memory that logs every writeback the
// hierarchy hands the controller, with the cycle it was handed over.
type recordingMemory struct {
	memctl.Memory
	writes [][2]uint64 // (addr, now)
}

func (r *recordingMemory) EnqueueWrite(addr uint64, now uint64) uint64 {
	r.writes = append(r.writes, [2]uint64{addr, now})
	return r.Memory.EnqueueWrite(addr, now)
}

// TestGoldenStream pins the default hierarchy's exact behaviour over a
// seeded stream of loads, stores, clwb and clflushopt: every completion
// cycle, every (addr, cycle) writeback handed to the controller, and the
// final Stats. Half the operations hit a hot set of 1,024 lines: it fits
// L2 but not L1, so its lines keep hitting in L1 or L2 while going stale
// in L3's LRU order (it is never clflushopt'ed, which would refill L3).
// The rest sweep a footprint about 4× the L3, so capacity evictions,
// dirty writebacks and inclusion back-invalidations of lines still held
// (and dirty) in L1 or L2 all fire.
func TestGoldenStream(t *testing.T) {
	rec := &recordingMemory{Memory: memctl.New(memctl.DefaultConfig())}
	h := New(DefaultConfig(), rec)
	rng := rand.New(rand.NewSource(1))

	const base = 0x100000 // set 0 of every level
	coldLines := 4 * (2 << 20) / mem.LineSize
	// Hot line i maps to L3 set i.
	hot := make([]uint64, 1024)
	for i := range hot {
		hot[i] = base + uint64(i)*mem.LineSize
	}

	digest := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		digest.Write(buf[:])
	}
	backInvalidated := 0
	now := uint64(0)
	for step := 0; step < 200_000; step++ {
		var addr uint64
		isHot := rng.Intn(2) == 0
		if isHot {
			addr = hot[rng.Intn(len(hot))] + uint64(rng.Intn(8))*8
		} else {
			addr = base + uint64(rng.Intn(coldLines))*mem.LineSize
		}
		now += uint64(rng.Intn(4))
		// The hot line sharing addr's L3 set is the one this operation's
		// fill can evict from L3; if L1 or L2 held it too, inclusion must
		// take it out of them (back-invalidation).
		victim := uint64(0)
		if s, _ := h.l3.index(mem.LineAddr(addr)); s < uint64(len(hot)) && hot[s] != mem.LineAddr(addr) {
			victim = hot[s]
		}
		watched := victim != 0 && (h.l1.lookup(victim) >= 0 || h.l2.lookup(victim) >= 0)
		var done uint64
		switch r := rng.Intn(10); {
		case r < 5:
			done = h.Load(addr, now)
		case r < 8:
			done = h.Store(addr, now)
		case r < 9:
			done = h.Flush(addr, now, false)
		case isHot:
			done = h.Load(addr, now)
		default:
			done = h.Flush(addr, now, true)
		}
		if watched && h.l3.lookup(victim) < 0 {
			if h.l1.lookup(victim) >= 0 || h.l2.lookup(victim) >= 0 {
				t.Fatalf("step %d: %#x left L3 but stayed above it", step, victim)
			}
			backInvalidated++
		}
		put(done)
	}

	st := h.Stats()
	if st.L3.Evictions == 0 || st.L3.DirtyEvictions == 0 || st.L2.DirtyEvictions == 0 || backInvalidated == 0 {
		t.Fatalf("stream too tame: stats %+v, %d back-invalidations", st, backInvalidated)
	}
	if uint64(len(rec.writes)) != st.Writebacks {
		t.Fatalf("controller saw %d writebacks, stats count %d", len(rec.writes), st.Writebacks)
	}
	for _, w := range rec.writes {
		put(w[0])
		put(w[1])
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	digest.Write(blob)
	if got, want := hex.EncodeToString(digest.Sum(nil)), "12e493950e4c9b81dccd7008df49f05bcb60025b768823d6437843d1f5746281"; got != want {
		t.Errorf("stream digest %s, want %s (stats %+v, %d writebacks, %d back-invalidations)",
			got, want, st, len(rec.writes), backInvalidated)
	}
}
