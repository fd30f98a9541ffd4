package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseTileSidePaperPlatforms(t *testing.T) {
	// Desktop: 16 MiB / 8 cores / 8 B = 256 Ki words, sqrt = 512 (§6.2).
	if got := DenseTileSide(Desktop8); got != 512 {
		t.Fatalf("desktop dense tile = %d want 512", got)
	}
	// Server: 4 MiB share → sqrt = 724 → floor pow2 = 512 (§6.2).
	if got := DenseTileSide(Server64); got != 512 {
		t.Fatalf("server dense tile = %d want 512", got)
	}
}

func TestEstimateOutputDensityKnownValues(t *testing.T) {
	// Dense-ish inputs: pL = pR = 0.5, C = 1 → Pnonzero = 0.25.
	in := Inputs{NNZL: 50, NNZR: 50, LDim: 10, RDim: 10, CDim: 10}
	pL, pR, p := EstimateOutputDensity(in)
	if pL != 0.5 || pR != 0.5 {
		t.Fatalf("pL=%g pR=%g", pL, pR)
	}
	want := 1 - math.Pow(1-0.25, 10)
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("Pnonzero=%g want %g", p, want)
	}
}

func TestEstimateOutputDensityTinyDensities(t *testing.T) {
	// NIPS-mode-2-like statistics (paper Table 3): pL = pR ≈ 1.83e-6,
	// C = 14036. The direct (1-x)^C would round to 1; log-space must give
	// ≈ C·pL·pR.
	in := Inputs{NNZL: 3101609, NNZR: 3101609, LDim: 120759228, RDim: 120759228, CDim: 14036}
	pL, _, p := EstimateOutputDensity(in)
	if pL < 1.5e-6 || pL > 2.2e-6 {
		t.Fatalf("pL=%g, want ≈1.83e-6", pL)
	}
	approx := float64(in.CDim) * pL * pL
	if p <= 0 || math.Abs(p-approx)/approx > 1e-3 {
		t.Fatalf("Pnonzero=%g want ≈%g", p, approx)
	}
}

func TestEstimateOutputDensityEdges(t *testing.T) {
	if _, _, p := EstimateOutputDensity(Inputs{NNZL: 0, NNZR: 10, LDim: 4, RDim: 4, CDim: 4}); p != 0 {
		t.Fatalf("empty left: p=%g", p)
	}
	// Fully dense inputs: every output element nonzero.
	if _, _, p := EstimateOutputDensity(Inputs{NNZL: 16, NNZR: 16, LDim: 4, RDim: 4, CDim: 4}); p != 1 {
		t.Fatalf("dense inputs: p=%g", p)
	}
	if _, _, p := EstimateOutputDensity(Inputs{LDim: 0, RDim: 4, CDim: 4}); p != 0 {
		t.Fatalf("zero dims: p=%g", p)
	}
}

func TestDecideDenseForDenseOutputs(t *testing.T) {
	// chicago-like: moderate density → expected tile nonzeros >> 1 → dense.
	in := Inputs{NNZL: 5_000_000, NNZR: 5_000_000, LDim: 59136, RDim: 59136, CDim: 6186}
	d, err := Decide(in, Desktop8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != AccumDense {
		t.Fatalf("kind=%v want dense (ENNZ=%g)", d.Kind, d.ENNZ)
	}
	if d.TileL != 512 || d.TileR != 512 {
		t.Fatalf("tiles %dx%d want 512x512", d.TileL, d.TileR)
	}
	if d.ENNZ < 1 {
		t.Fatalf("ENNZ=%g", d.ENNZ)
	}
}

func TestDecideSparseForUltraSparseOutputs(t *testing.T) {
	// NIPS-mode-2-like: ultra-sparse output → sparse accumulator with a
	// tile far larger than the 512 dense bound (paper: 2^20).
	in := Inputs{NNZL: 3_101_609, NNZR: 3_101_609, LDim: 120_759_228, RDim: 120_759_228, CDim: 14036}
	d, err := Decide(in, Desktop8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != AccumSparse {
		t.Fatalf("kind=%v want sparse (ENNZ=%g)", d.Kind, d.ENNZ)
	}
	if d.TileL <= 512 {
		t.Fatalf("sparse tile %d should exceed dense bound", d.TileL)
	}
	if d.TileL&(d.TileL-1) != 0 {
		t.Fatalf("tile %d not a power of two", d.TileL)
	}
}

func TestDecideClampsToSmallDims(t *testing.T) {
	in := Inputs{NNZL: 100, NNZR: 100, LDim: 10, RDim: 3000, CDim: 10}
	d, err := Decide(in, Desktop8)
	if err != nil {
		t.Fatal(err)
	}
	if d.TileL != 16 {
		t.Fatalf("TileL=%d want 16 (pow2 ceiling of 10)", d.TileL)
	}
	if d.TileR > 512 {
		t.Fatalf("TileR=%d", d.TileR)
	}
}

func TestDecideErrors(t *testing.T) {
	if _, err := Decide(Inputs{LDim: 0, RDim: 1, CDim: 1}, Desktop8); err == nil {
		t.Fatal("want zero-dim error")
	}
	if _, err := Decide(Inputs{LDim: 1, RDim: 1, CDim: 1}, Platform{Cores: 0, L3Bytes: 1, WordBytes: 8}); err == nil {
		t.Fatal("want platform error")
	}
}

func TestSparseTileSideInverseSqrtOfDensity(t *testing.T) {
	// §5.4: T ∝ 1/sqrt(δ). Quadrupling δ should halve T (up to pow2 rounding).
	t1 := SparseTileSide(Desktop8, 1e-6)
	t2 := SparseTileSide(Desktop8, 4e-6)
	if t1 != t2*2 {
		t.Fatalf("T(δ)=%d, T(4δ)=%d; want exact halving", t1, t2)
	}
	if got := SparseTileSide(Desktop8, 0); got != uint64(1)<<31 {
		t.Fatalf("zero density should give max tile, got %d", got)
	}
}

func TestPow2Helpers(t *testing.T) {
	cases := []struct{ in, floor, ceil uint64 }{
		{0, 1, 1}, {1, 1, 1}, {2, 2, 2}, {3, 2, 4}, {5, 4, 8},
		{724, 512, 1024}, {1 << 20, 1 << 20, 1 << 20},
	}
	for _, c := range cases {
		if got := floorPow2(c.in); got != c.floor {
			t.Errorf("floorPow2(%d)=%d want %d", c.in, got, c.floor)
		}
		if got := ceilPow2(c.in); got != c.ceil {
			t.Errorf("ceilPow2(%d)=%d want %d", c.in, got, c.ceil)
		}
	}
}

func TestDecidePropertyDensityMonotone(t *testing.T) {
	// More input nonzeros never decreases the estimated output density.
	f := func(seed int64) bool {
		n := seed%1000 + 1
		base := Inputs{NNZL: n, NNZR: 500, LDim: 1000, RDim: 1000, CDim: 100}
		more := base
		more.NNZL = n * 2
		_, _, p1 := EstimateOutputDensity(base)
		_, _, p2 := EstimateOutputDensity(more)
		return p2 >= p1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedOutputNNZ(t *testing.T) {
	in := Inputs{NNZL: 16, NNZR: 16, LDim: 4, RDim: 4, CDim: 4}
	if got := ExpectedOutputNNZ(in); got != 16 {
		t.Fatalf("ExpectedOutputNNZ=%g want 16 (dense output)", got)
	}
}

func TestAutoAndWithCores(t *testing.T) {
	p := Auto()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	q := p.WithCores(3)
	if q.Cores != 3 || p.Cores == 3 && q.Cores != p.Cores {
		t.Fatalf("WithCores: %+v", q)
	}
	if AccumAuto.String() != "auto" || AccumDense.String() != "dense" || AccumSparse.String() != "sparse" {
		t.Fatal("AccumKind strings")
	}
}

func TestDecideConsistencyProperty(t *testing.T) {
	// Internal consistency of Decision fields: ENNZ = PNonzero·DenseT² and
	// the kind follows the ENNZ >= 1 rule.
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		n := seed%10_000 + 1
		in := Inputs{
			NNZL: n, NNZR: n*2 + 1,
			LDim: uint64(n%977 + 1), RDim: uint64(n%1231 + 1), CDim: uint64(n%53 + 1),
		}
		d, err := Decide(in, Desktop8)
		if err != nil {
			return false
		}
		wantENNZ := d.PNonzero * float64(d.DenseT) * float64(d.DenseT)
		if math.Abs(d.ENNZ-wantENNZ) > 1e-9*math.Max(1, wantENNZ) {
			return false
		}
		if (d.ENNZ >= 1) != (d.Kind == AccumDense) {
			return false
		}
		return d.TileL > 0 && d.TileR > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBiggerCacheNeverShrinksTiles(t *testing.T) {
	in := Inputs{NNZL: 5000, NNZR: 5000, LDim: 1 << 20, RDim: 1 << 20, CDim: 1 << 10}
	small := Platform{Name: "s", Cores: 8, L3Bytes: 8 << 20, WordBytes: 8}
	big := Platform{Name: "b", Cores: 8, L3Bytes: 64 << 20, WordBytes: 8}
	ds, err := Decide(in, small)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Decide(in, big)
	if err != nil {
		t.Fatal(err)
	}
	if db.TileL < ds.TileL {
		t.Fatalf("bigger L3 shrank tile: %d -> %d", ds.TileL, db.TileL)
	}
}

func TestForceKind(t *testing.T) {
	in := Inputs{NNZL: 100, NNZR: 100, LDim: 1 << 24, RDim: 1 << 24, CDim: 64}
	d, err := Decide(in, Desktop8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != AccumSparse {
		t.Fatalf("expected sparse baseline decision, got %v", d.Kind)
	}
	forced := d.ForceKind(AccumDense, in, Desktop8)
	if forced.Kind != AccumDense {
		t.Fatal("kind not forced")
	}
	if forced.TileL != d.DenseT {
		t.Fatalf("forced dense tile %d want %d", forced.TileL, d.DenseT)
	}
	// Forcing the same kind or Auto is a no-op.
	if same := d.ForceKind(AccumSparse, in, Desktop8); same.TileL != d.TileL {
		t.Fatal("same-kind force changed tiles")
	}
	if same := d.ForceKind(AccumAuto, in, Desktop8); same.Kind != d.Kind {
		t.Fatal("auto force changed kind")
	}
	// Round trip back to sparse restores a sparse-sized tile.
	back := forced.ForceKind(AccumSparse, in, Desktop8)
	if back.TileL <= back.DenseT {
		t.Fatalf("sparse tile %d should exceed dense bound %d", back.TileL, back.DenseT)
	}
}

// TestSlackProperty checks the parallel-slack step over random contraction
// statistics and core counts, for the model's own decision and for both
// forced kinds: the tile grid reaches blockBalanceFactor tiles per core
// unless a floor stops the next halving, no halving breaks a floor, equal
// extents keep equal tiles, sides stay powers of two, the halvings account
// for the whole shrink of the cache-sized tile, and the ENNZ/Kind
// consistency of Algorithm 7 holds.
func TestSlackProperty(t *testing.T) {
	logUniform := func(rng *rand.Rand, maxLog2 int) uint64 {
		return 1 + rng.Uint64()%(uint64(1)<<(1+rng.Intn(maxLog2)))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := Inputs{
			NNZL: int64(logUniform(rng, 24)), NNZR: int64(logUniform(rng, 24)),
			LDim: logUniform(rng, 36), RDim: logUniform(rng, 36), CDim: logUniform(rng, 20),
		}
		if rng.Intn(2) == 0 {
			in.RDim, in.NNZR = in.LDim, in.NNZL
		}
		cores := 1 + rng.Intn(64)
		p := Platform{Name: "q", Cores: cores, L3Bytes: int64(cores) * int64(1+rng.Intn(8)) << 20, WordBytes: 8}
		d, err := Decide(in, p)
		if err != nil {
			t.Logf("Decide(%+v): %v", in, err)
			return false
		}
		for i, dd := range []Decision{d, d.ForceKind(AccumDense, in, p), d.ForceKind(AccumSparse, in, p)} {
			if msg := slackViolation(dd, in, p, i > 0); msg != "" {
				t.Logf("%s: in=%+v cores=%d L3=%d decision=%+v", msg, in, p.Cores, p.L3Bytes, dd)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSlackStopsAtProbeBoundContractions pins the slack decisions of two
// FROSTT self-contractions at the repository's 0.01 scale on a two-core
// platform. nips-2 still does about 20 multiply-adds per key probe on a
// 4×4 grid, so its one sparse tile splits into that grid. vast-014
// matches each key about once; a 3×3 grid would double its probes, so it
// keeps its one tile.
func TestSlackStopsAtProbeBoundContractions(t *testing.T) {
	p := Platform{Name: "2c", Cores: 2, L3Bytes: 4 << 20, WordBytes: 8}
	cases := []struct {
		name     string
		in       Inputs
		tile     uint64
		halvings int
	}{
		{"nips-2", Inputs{NNZL: 31016, NNZR: 31016, LDim: 3552125, RDim: 3552125, CDim: 4439}, 1 << 20, 4},
		{"vast-014", Inputs{NNZL: 260219, NNZR: 260219, LDim: 80, RDim: 80, CDim: 10437175840}, 128, 0},
	}
	for _, c := range cases {
		d, err := Decide(c.in, p)
		if err != nil {
			t.Fatal(err)
		}
		if d.TileL != c.tile || d.TileR != c.tile || d.SlackHalvings != c.halvings {
			t.Errorf("%s: tile %dx%d after %d halvings, want %d after %d", c.name, d.TileL, d.TileR, d.SlackHalvings, c.tile, c.halvings)
		}
	}
}

func TestProbesWithinWork(t *testing.T) {
	// 1000 nonzeros a side over 100 keys: 10 000 expected multiply-adds.
	in := Inputs{NNZL: 1000, NNZR: 1000, LDim: 1000, RDim: 1000, CDim: 100}
	// 10×10 tiles of 100 nonzeros hold about 64 distinct keys each:
	// 6400 probes.
	if !probesWithinWork(in, 100, 100) {
		t.Error("10×10 grid: 6400 probes should fit 10 000 multiply-adds")
	}
	// 20×20 tiles of 50 nonzeros hold about 40: 16 000 probes.
	if probesWithinWork(in, 50, 50) {
		t.Error("20×20 grid: 16 000 probes should exceed 10 000 multiply-adds")
	}
}

// slackViolation returns which slack invariant d breaks, or "". forced
// marks a ForceKind decision, whose kind need not follow ENNZ.
func slackViolation(d Decision, in Inputs, p Platform, forced bool) string {
	isPow2 := func(x uint64) bool { return x > 0 && x&(x-1) == 0 }
	if !isPow2(d.TileL) || !isPow2(d.TileR) {
		return "tile side not a power of two"
	}
	if in.LDim == in.RDim && d.TileL != d.TileR {
		return "equal extents gave unequal tiles"
	}
	if d.ENNZ != d.PNonzero*float64(d.DenseT)*float64(d.DenseT) {
		return "ENNZ is not PNonzero·DenseT²"
	}
	if !forced && (d.ENNZ >= 1) != (d.Kind == AccumDense) {
		return "kind does not follow ENNZ >= 1"
	}
	// The cache-sized tile of d's kind, clamped to the extents, shrinks
	// by exactly 2^SlackHalvings.
	cache := d.DenseT
	if d.Kind == AccumSparse {
		cache = SparseTileSide(p, d.PNonzero)
	}
	cl, cr := clampTile(cache, in.LDim), clampTile(cache, in.RDim)
	if float64(d.TileL)*float64(d.TileR)*math.Ldexp(1, d.SlackHalvings) != float64(cl)*float64(cr) {
		return "halvings do not account for the tile shrink"
	}
	if d.TileL < min(cl, minSlackSide) || d.TileR < min(cr, minSlackSide) {
		return "a side was halved below the floor"
	}
	if d.SlackHalvings > 0 && d.Kind == AccumDense && d.PNonzero*float64(d.TileL)*float64(d.TileR) < 1 {
		return "a dense tile was halved below one expected nonzero"
	}
	if d.SlackHalvings > 0 && !probesWithinWork(in, d.TileL, d.TileR) {
		return "a halving made the key probes outgrow the multiply-adds"
	}
	target := float64(blockBalanceFactor * p.Cores)
	grid := math.Ceil(float64(in.LDim)/float64(d.TileL)) * math.Ceil(float64(in.RDim)/float64(d.TileR))
	if grid >= target {
		return ""
	}
	// Short of the target: the next halving must break a floor.
	ntl, ntr := d.TileL, d.TileR
	if d.TileL >= d.TileR {
		ntl /= 2
	}
	if d.TileR >= d.TileL {
		ntr /= 2
	}
	if max(d.TileL, d.TileR)/2 < minSlackSide ||
		d.Kind == AccumDense && d.PNonzero*float64(ntl)*float64(ntr) < 1 ||
		!probesWithinWork(in, ntl, ntr) {
		return ""
	}
	return "grid short of target with no floor reached"
}
