// Package accum implements the two output-tile accumulators of FaSTCC
// (paper Sections 4.2 and 5): a dense tile backed by a value buffer, an
// active-position list and a bitmask, and a sparse tile backed by an
// open-addressing hash table. Both present the same Accumulator interface
// so the contraction kernel is accumulator-agnostic; the probabilistic
// model in internal/model decides which to instantiate.
package accum

import (
	"slices"

	"fastcc/internal/hashtable"
)

// Accumulator accumulates contributions to one output tile and then drains
// its nonzeros. Implementations are reused across tile tasks via Reset.
// Intra-tile indices l and r satisfy l < TL, r < TR.
type Accumulator interface {
	// Upsert adds v to position (l, r) — WS.upsert of Algorithm 4.
	Upsert(l, r uint32, v float64)
	// ScatterMatches upserts every match's outer product, matches in slice
	// order and each match in L-major order: the same accumulation order,
	// and so the same bits, as the equivalent Upsert loop.
	ScatterMatches(ms []Match)
	// Drain appends every nonzero position to seg exactly once, in the
	// order the positions were first touched, and leaves the accumulator
	// empty and reusable.
	Drain(seg *Segment)
	// Len returns the number of distinct touched positions.
	Len() int
	// Reset empties the accumulator without draining.
	Reset()
}

// Match is one co-iteration match: the left and right pair runs that share
// a contraction key, contracted as the outer product L × R. Kernels batch
// matches and scatter a whole batch per call, so the call boundary and the
// accumulator field reloads amortize over the batch instead of recurring
// per matched key.
type Match struct {
	L, R []hashtable.Pair
}

// Segment is a flat, structure-of-arrays run of drained tile nonzeros:
// element k sits at tile-relative position (L[k], R[k]) with value V[k].
// A worker keeps one segment across all its tile tasks — each task's drain
// appends a contiguous range — and across runs, so the storage is reused.
type Segment struct {
	L, R []uint32
	V    []float64
}

// Len returns the number of elements in the segment.
func (s *Segment) Len() int { return len(s.V) }

// Reset empties the segment, keeping its storage.
func (s *Segment) Reset() {
	s.L, s.R, s.V = s.L[:0], s.R[:0], s.V[:0]
}

// CapBytes returns the byte size of the segment's storage.
func (s *Segment) CapBytes() int { return 4*(cap(s.L)+cap(s.R)) + 8*cap(s.V) }

// Append adds one element.
func (s *Segment) Append(l, r uint32, v float64) {
	s.L, s.R, s.V = append(s.L, l), append(s.R, r), append(s.V, v)
}

// extend lengthens the segment by n elements and returns the new tails for
// the caller to fill.
func (s *Segment) extend(n int) (ls, rs []uint32, vs []float64) {
	at := len(s.V)
	s.L = slices.Grow(s.L, n)[:at+n]
	s.R = slices.Grow(s.R, n)[:at+n]
	s.V = slices.Grow(s.V, n)[:at+n]
	return s.L[at:], s.R[at:], s.V[at:]
}
