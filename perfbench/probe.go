package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gcSample is a reading of the Go runtime's cumulative GC counters.
type gcSample struct {
	cycles     uint64
	allocBytes uint64
}

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return gcSample{cycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var calibSink uint64

// calibBoundary is the median of a few calibration samples, taken at a pass
// boundary once the garbage collector is idle.
func calibBoundary() float64 {
	xs := make([]float64, 5)
	for i := range xs {
		xs[i] = calibSample()
	}
	return median(xs)
}

// calibSample times a short fixed integer loop and returns its iterations
// per second. It measures the host, not the program: when the median of a
// run's samples moves between two runs, the host changed speed.
func calibSample() float64 {
	const n = 1 << 20
	x := uint64(0x9e3779b97f4a7c15)
	start := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return n / time.Since(start).Seconds()
}

// clockCost is the host time of one time.Now call, subtracted from spans
// measured around very short calls.
func clockCost() float64 {
	const n = 200000
	start := time.Now()
	var t time.Time
	for i := 0; i < n; i++ {
		t = time.Now()
	}
	_ = t
	return time.Since(start).Seconds() / n
}

// startProfile starts a CPU profile written to path; stop ends it.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// packageShares groups a CPU profile's flat samples by Go package with the
// toolchain's pprof and returns each package's share of all samples.
func packageShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTop(out.String())
}

// parseTop reads pprof -top output: after the header, each line is
// "flat flat% sum% cum cum% function".
func parseTop(text string) (map[string]float64, error) {
	flat := make(map[string]float64)
	var total float64
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %v", sc.Text(), err)
		}
		fn := strings.Join(fields[5:], " ")
		flat[packageOf(fn)] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof: profile has no samples")
	}
	for k := range flat {
		flat[k] /= total
	}
	return flat, nil
}

// packageOf extracts the import path from a symbol name such as
// "specpersist/internal/cpu.(*CPU).dispatch" or "runtime.mallocgc". Bare
// assembly symbols such as "aeshashbody" belong to the runtime.
func packageOf(fn string) string {
	if !strings.ContainsAny(fn, "./") {
		return "runtime"
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may name other packages
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// shareOf sums the shares of the given packages; a name ending in "/"
// matches every package below it.
func shareOf(shares map[string]float64, pkgs ...string) float64 {
	var s float64
	for pkg, v := range shares {
		for _, want := range pkgs {
			if pkg == want || (strings.HasSuffix(want, "/") && strings.HasPrefix(pkg, want)) {
				s += v
				break
			}
		}
	}
	return s
}
