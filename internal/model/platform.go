// Package model implements FaSTCC's probabilistic modeling (paper Section 5
// and Algorithm 7): it estimates the output tensor's density from the input
// densities, chooses between a dense and a sparse tile accumulator, and
// selects the tile size from the platform's last-level-cache capacity,
// then splits cache-sized tiles until every core has tile tasks.
package model

import (
	"fmt"
	"runtime"
)

// Platform describes the machine parameters the model needs: core count,
// shared last-level cache capacity, the floating-point word size DT, and
// the microarchitectural parameters the tile co-iteration loops use
// (cache-line size and probe software-pipeline depth). The paper evaluates
// two platforms, reproduced here as profiles; Auto derives a profile for
// the current machine.
//
// LineBytes and ProbeDepth may be left zero: Line() and ProbeBatch()
// substitute detection defaults, so pre-existing Platform literals keep
// their meaning.
type Platform struct {
	Name      string
	Cores     int
	L3Bytes   int64
	WordBytes int64
	// LineBytes is the cache-line size the kernels' batching arithmetic
	// assumes; 0 means the architecture default (see Line).
	LineBytes int64
	// ProbeDepth is the number of hash probes the batched Sealed lookup
	// keeps in flight per LookupBatch chunk — the software-pipeline depth
	// that hides probe latency behind independent loads. 0 means the
	// default (see ProbeBatch).
	ProbeDepth int
}

// Architecture defaults for the dispatch seam. 64-byte lines hold on every
// platform Go targets that this engine cares about (x86-64, arm64 except
// Apple's 128-byte L2 sectors, riscv64); eight in-flight probes covers the
// typical 4-to-12-deep load queues' useful MLP without spilling the batch
// scratch out of registers/L1.
const (
	DefaultLineBytes  = 64
	DefaultProbeDepth = 8
	// MaxProbeDepth bounds ProbeDepth to the batch scratch the sealed
	// table's LookupBatch carries on its stack.
	MaxProbeDepth = 16
)

// Desktop8 models the paper's 8-core Intel i7-11700F: 16 MiB shared L3,
// 64-byte lines. Its dense tile size works out to sqrt(2 MiB / 8 B) = 512.
var Desktop8 = Platform{Name: "desktop8", Cores: 8, L3Bytes: 16 << 20, WordBytes: 8, LineBytes: 64, ProbeDepth: 8}

// Server64 models the paper's 64-core Threadripper 3990X: 256 MiB shared
// L3, 64-byte lines. sqrt(4 MiB / 8 B) = 724, rounded down to the power of
// two 512. The deeper load queues of Zen 2 take a 16-deep probe pipeline.
var Server64 = Platform{Name: "server64", Cores: 64, L3Bytes: 256 << 20, WordBytes: 8, LineBytes: 64, ProbeDepth: 16}

// Auto returns a profile for the current machine: GOMAXPROCS cores and an
// assumed 2 MiB L3 share per core (typical of recent x86 parts; exact LLC
// detection is not portable from pure Go), with architecture-default line
// size and probe depth.
func Auto() Platform {
	n := runtime.GOMAXPROCS(0)
	return Platform{
		Name: "auto", Cores: n, L3Bytes: int64(n) * (2 << 20), WordBytes: 8,
		LineBytes: DefaultLineBytes, ProbeDepth: DefaultProbeDepth,
	}
}

// Line returns the cache-line size in bytes, substituting the architecture
// default when the profile left it zero.
func (p Platform) Line() int64 {
	if p.LineBytes > 0 {
		return p.LineBytes
	}
	return DefaultLineBytes
}

// ProbeBatch returns the batched-probe pipeline depth, clamped to
// [1, MaxProbeDepth], substituting the default when the profile left it
// zero.
func (p Platform) ProbeBatch() int {
	d := p.ProbeDepth
	if d <= 0 {
		d = DefaultProbeDepth
	}
	if d > MaxProbeDepth {
		d = MaxProbeDepth
	}
	return d
}

// WithCores returns a copy of p with the core count (and proportional L3
// share assumption left intact) overridden — used by thread-scaling sweeps.
func (p Platform) WithCores(n int) Platform {
	p.Cores = n
	return p
}

// Validate checks that the platform parameters are usable.
func (p Platform) Validate() error {
	if p.Cores <= 0 {
		return fmt.Errorf("model: platform %q has %d cores", p.Name, p.Cores)
	}
	if p.L3Bytes <= 0 || p.WordBytes <= 0 {
		return fmt.Errorf("model: platform %q has invalid cache/word sizes", p.Name)
	}
	if p.LineBytes < 0 || p.ProbeDepth < 0 {
		return fmt.Errorf("model: platform %q has negative line size or probe depth", p.Name)
	}
	return nil
}
