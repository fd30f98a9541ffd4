package model

import (
	"fmt"
	"math"
	"math/bits"
)

// AccumKind selects the output tile accumulator.
type AccumKind int

const (
	// AccumAuto lets the probabilistic model decide (Algorithm 7).
	AccumAuto AccumKind = iota
	// AccumDense forces the dense tile (value buffer + apos + bitmask).
	AccumDense
	// AccumSparse forces the sparse tile (open-addressing hash table).
	AccumSparse
)

func (k AccumKind) String() string {
	switch k {
	case AccumAuto:
		return "auto"
	case AccumDense:
		return "dense"
	case AccumSparse:
		return "sparse"
	}
	return fmt.Sprintf("AccumKind(%d)", int(k))
}

// maxTileSide caps tile sides so intra-tile indices fit in uint32 (tile
// tables and accumulators store them as uint32).
const maxTileSide = uint64(1) << 31

// Inputs are the contraction statistics the model consumes: nonzero counts
// of the two matrixized operands and the extents of the linearized index
// spaces L, R and C.
type Inputs struct {
	NNZL, NNZR int64
	LDim, RDim uint64
	CDim       uint64
}

// Decision is the model output: accumulator kind and tile sizes, plus the
// intermediate estimates reported in the paper's Table 3.
type Decision struct {
	Kind  AccumKind
	TileL uint64
	TileR uint64
	// PL and PR are the input densities p_L = nnz_L/(L·C), p_R = nnz_R/(R·C).
	PL, PR float64
	// PNonzero is the estimated output density 1-(1-pL·pR)^C (Section 5.1).
	PNonzero float64
	// ENNZ is E_nnz(T²), the expected nonzeros in a cache-sized dense tile.
	ENNZ float64
	// DenseT is the cache-derived dense tile side sqrt(L3/(Ncores·DT))
	// rounded down to a power of two (Section 6.2).
	DenseT uint64
	// SlackHalvings counts the tile-side halvings the parallel-slack step
	// made after Algorithm 7 sized the tiles (see applySlack): the tile
	// area shrank by 2^SlackHalvings. Zero when the cache-sized grid
	// already had enough tiles for every core.
	SlackHalvings int
}

// EstimateOutputDensity computes Φ_res = 1 - (1 - pL·pR)^C under the
// uniform-random-nonzeros assumption of Section 5.1, evaluated in log space
// for numerical robustness at the extreme densities of FROSTT tensors
// (pL as small as 7.8e-8 with C ~ 1e9).
func EstimateOutputDensity(in Inputs) (pL, pR, pNonzero float64) {
	lc := float64(in.LDim) * float64(in.CDim)
	rc := float64(in.RDim) * float64(in.CDim)
	if lc == 0 || rc == 0 {
		return 0, 0, 0
	}
	pL = float64(in.NNZL) / lc
	pR = float64(in.NNZR) / rc
	pOverlap := pL * pR
	if pOverlap <= 0 {
		return pL, pR, 0
	}
	if pOverlap >= 1 {
		return pL, pR, 1
	}
	// 1-(1-x)^C = -expm1(C*log1p(-x)): exact for tiny x·C where the direct
	// form underflows to 0.
	pNonzero = -math.Expm1(float64(in.CDim) * math.Log1p(-pOverlap))
	return pL, pR, pNonzero
}

// DenseTileSide returns sqrt(L3/(Ncores·DT)) rounded DOWN to a power of two
// (the paper rounds 724 down to 512 so the drain bitmask arithmetic works).
func DenseTileSide(p Platform) uint64 {
	words := p.L3Bytes / (int64(p.Cores) * p.WordBytes)
	if words < 1 {
		return 1
	}
	t := uint64(math.Sqrt(float64(words)))
	return floorPow2(t)
}

// SparseTileSide returns sqrt(L3_bytes/(17.7·δ·N)) rounded UP to the next
// power of two (Section 5.4: 16-byte entries at 90 % utilization,
// 16/0.9 ≈ 17.7). δ is the estimated output density.
func SparseTileSide(p Platform, delta float64) uint64 {
	if delta <= 0 {
		return maxTileSide
	}
	t2 := float64(p.L3Bytes) / (17.7 * delta * float64(p.Cores))
	t := uint64(math.Ceil(math.Sqrt(t2)))
	ct := ceilPow2(t)
	if ct > maxTileSide {
		return maxTileSide
	}
	return ct
}

// Decide runs Algorithm 7: estimate the expected nonzeros in a cache-sized
// dense tile; if at least one, use dense tiles of that size, otherwise use
// sparse tiles sized from the output density. Tile sides are clamped to the
// (power-of-two ceiling of the) output extents so degenerate dimensions do
// not waste accumulator space.
func Decide(in Inputs, p Platform) (Decision, error) {
	if err := p.Validate(); err != nil {
		return Decision{}, err
	}
	if in.LDim == 0 || in.RDim == 0 || in.CDim == 0 {
		return Decision{}, fmt.Errorf("model: zero-extent index space %+v", in)
	}
	d := Decision{}
	d.PL, d.PR, d.PNonzero = EstimateOutputDensity(in)
	d.DenseT = DenseTileSide(p)
	d.ENNZ = d.PNonzero * float64(d.DenseT) * float64(d.DenseT)
	if d.ENNZ >= 1 {
		d.Kind = AccumDense
		d.TileL, d.TileR = d.DenseT, d.DenseT
	} else {
		d.Kind = AccumSparse
		t := SparseTileSide(p, d.PNonzero)
		d.TileL, d.TileR = t, t
	}
	d.TileL = clampTile(d.TileL, in.LDim)
	d.TileR = clampTile(d.TileR, in.RDim)
	d.applySlack(in, p)
	return d, nil
}

// clampTile shrinks a tile side to the power-of-two ceiling of the extent
// when the extent is smaller than the tile, and enforces the uint32 bound.
func clampTile(t, dim uint64) uint64 {
	if dim < t {
		t = ceilPow2(dim)
	}
	if t > maxTileSide {
		t = maxTileSide
	}
	if t == 0 {
		t = 1
	}
	return t
}

// ForceKind returns the decision with the accumulator kind overridden and
// the tile sizes recomputed for that kind (forcing dense on a
// sparse-decided contraction must not keep the huge sparse tile, and vice
// versa), parallel slack included.
func (d Decision) ForceKind(kind AccumKind, in Inputs, p Platform) Decision {
	if kind == AccumAuto || kind == d.Kind {
		return d
	}
	d.Kind = kind
	switch kind {
	case AccumDense:
		d.TileL, d.TileR = d.DenseT, d.DenseT
	case AccumSparse:
		t := SparseTileSide(p, d.PNonzero)
		d.TileL, d.TileR = t, t
	}
	d.TileL = clampTile(d.TileL, in.LDim)
	d.TileR = clampTile(d.TileR, in.RDim)
	d.SlackHalvings = 0
	d.applySlack(in, p)
	return d
}

// minSlackSide is the smallest tile side the parallel-slack step halves
// down to: below it a tile task's fixed costs (claim, accumulator reset,
// drain) outweigh the work it carries.
const minSlackSide = 16

// applySlack is the parallel-slack step that follows Algorithm 7. The
// algorithm sizes tiles from cache capacity alone, so a contraction whose
// output space fits in a few cache-sized tiles runs as one or two tile
// tasks and leaves cores idle. While the tile grid has fewer than
// blockBalanceFactor tiles per core — the same tasks-per-worker constant
// the blocked schedule keeps — the larger tile side is halved, or both
// when they are equal, so equal extents keep equal tiles and a
// self-contraction keeps one shard. Halving keeps TileR a power of two.
//
// Three floors stop the halving:
//   - the larger side stays at least minSlackSide (sides are powers of
//     two, so a halved side never drops below it);
//   - a dense tile is not halved below one expected nonzero
//     (PNonzero·TileL·TileR >= 1);
//   - the grid's expected key probes stay within the contraction's
//     expected multiply-adds (probesWithinWork). Every tile pair probes
//     the keys of its smaller side, so splitting both sides g ways
//     multiplies the probes by about g while the multiply-adds stay put.
//     A probe-bound contraction would pay that extra work on every run,
//     and in full on a one-thread run, for parallelism it cannot use.
//
// The rule reads the platform's cores, never the run's thread count, so a
// contraction gets the same tiles at every thread count: its shards are
// reused by runs at any thread count, and its output is bit-identical
// across them.
func (d *Decision) applySlack(in Inputs, p Platform) {
	target := uint64(blockBalanceFactor) * uint64(p.Cores)
	for !enoughTiles(in, d.TileL, d.TileR, target) {
		tl, tr := d.TileL, d.TileR
		n := 0
		if tl >= d.TileR {
			tl /= 2
			n++
		}
		if tr >= d.TileL {
			tr /= 2
			n++
		}
		if max(tl, tr) < minSlackSide {
			return
		}
		if d.Kind == AccumDense && d.PNonzero*float64(tl)*float64(tr) < 1 {
			return
		}
		if !probesWithinWork(in, tl, tr) {
			return
		}
		d.TileL, d.TileR = tl, tr
		d.SlackHalvings += n
	}
}

// enoughTiles reports whether a tl×tr tiling of the L×R output space has
// at least target tiles. Either axis alone reaching target settles it, so
// the product is only formed below target·target and cannot wrap.
func enoughTiles(in Inputs, tl, tr, target uint64) bool {
	nl, nr := tiles(in.LDim, tl), tiles(in.RDim, tr)
	return nl >= target || nr >= target || nl*nr >= target
}

// probesWithinWork reports whether a tl×tr grid's expected key probes —
// per tile pair, the distinct keys of the side with fewer (the side the
// hash loop iterates) — stay within the expected multiply-adds
// NNZL·NNZR/CDim, under the uniform-nonzeros assumption of Section 5.1.
func probesWithinWork(in Inputs, tl, tr uint64) bool {
	nl, nr := tiles(in.LDim, tl), tiles(in.RDim, tr)
	kl := ExpectedDistinctKeys(int(uint64(in.NNZL)/nl), in.CDim)
	kr := ExpectedDistinctKeys(int(uint64(in.NNZR)/nr), in.CDim)
	probes := float64(nl) * float64(nr) * float64(min(kl, kr))
	return probes <= float64(in.NNZL)*float64(in.NNZR)/float64(in.CDim)
}

// tiles returns the tile count along one axis, ceil(dim/tile), without the
// dim+tile-1 overflow.
func tiles(dim, tile uint64) uint64 {
	n := dim / tile
	if dim%tile != 0 {
		n++
	}
	return n
}

// ExpectedOutputNNZ returns the model's estimate of total output nonzeros.
func ExpectedOutputNNZ(in Inputs) float64 {
	_, _, p := EstimateOutputDensity(in)
	return p * float64(in.LDim) * float64(in.RDim)
}

func floorPow2(x uint64) uint64 {
	if x == 0 {
		return 1
	}
	return 1 << (63 - bits.LeadingZeros64(x))
}

func ceilPow2(x uint64) uint64 {
	if x <= 1 {
		return 1
	}
	return 1 << (64 - bits.LeadingZeros64(x-1))
}
