package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"

	"fastcc"
)

// digest is an order-independent fingerprint of a tensor: the wrapping sum
// of a mixed hash over each nonzero's coordinates and value bits, plus the
// nonzero count and the dims. Two outputs holding the same elements in any
// order agree exactly; a single changed bit in any value does not.
type digest struct {
	dims, sum uint64
	nnz       int
}

func digestOf(t *fastcc.Tensor) digest {
	var d digest
	for _, n := range t.Dims {
		d.dims = mix(d.dims ^ n)
	}
	for i, v := range t.Vals {
		// Zeros are skipped: the BTNS wire format a server result travels
		// in canonicalizes them away.
		if v == 0 {
			continue
		}
		h := math.Float64bits(v)
		for m := range t.Coords {
			h = mix(h ^ t.Coords[m][i])
		}
		d.sum += mix(h)
		d.nnz++
	}
	return d
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gate checks outputs against their reference digests. With corrupt set it
// flips the last bit of one value of the next output it checks, so tests can
// prove that a wrong output is caught.
type gate struct {
	corrupt atomic.Bool
}

func (g *gate) ok(out *fastcc.Tensor, ref digest) bool {
	if len(out.Vals) > 0 && g.corrupt.CompareAndSwap(true, false) {
		out.Vals[0] = math.Float64frombits(math.Float64bits(out.Vals[0]) ^ 1)
	}
	return digestOf(out) == ref
}

// percentile is the nearest-rank percentile of ascending xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// tailPercentiles are the candidates for tail_ms, highest first. They are
// close together so that a run with a few more or fewer samples moves
// tail_ms to a neighbouring percentile, not across a band of the latency
// distribution.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 85, 80, 75, 50}

// tail returns the highest candidate percentile that leaves at least ten
// samples of ascending xs beyond it, with its value.
func tail(xs []float64) (p, v float64) {
	for _, p := range tailPercentiles {
		if len(xs)-int(math.Ceil(p/100*float64(len(xs)))) >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 50, percentile(xs, 50)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// runtimeCounters are the process counters read at phase boundaries.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
	gcPauseNS            uint64
	cache                fastcc.CacheStats
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcPauseNS:  ms.PauseTotalNs,
		cache:      fastcc.ShardCacheStats(),
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stamp is the environment every result is printed with.
type stamp struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Scales     map[string]float64 `json:"scales"`
	CPU        string             `json:"cpu"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Commit     string             `json:"commit"`
}

func newStamp(cfg config, scales map[string]float64) stamp {
	return stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Scales:     scales,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the Go toolchain stamped into the binary; a
// build outside a git checkout has none.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
