package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fastcc/internal/accum"
	"fastcc/internal/coo"
	"fastcc/internal/model"
	"fastcc/internal/ref"
	"fastcc/internal/testutil"
)

// assertSameOrder demands two outputs identical element by element — same
// dims, same coordinates at every position, same value bits — without
// sorting either side, so it sees the element order as well as the set.
func assertSameOrder(t *testing.T, what string, want, got *coo.Tensor) {
	t.Helper()
	if len(want.Dims) != len(got.Dims) || want.NNZ() != got.NNZ() {
		t.Fatalf("%s: shape %v/%d nnz, want %v/%d nnz", what, got.Dims, got.NNZ(), want.Dims, want.NNZ())
	}
	for m := range want.Dims {
		if want.Dims[m] != got.Dims[m] {
			t.Fatalf("%s: dims %v, want %v", what, got.Dims, want.Dims)
		}
		for i := range want.Coords[m] {
			if want.Coords[m][i] != got.Coords[m][i] {
				t.Fatalf("%s: mode %d coordinate differs at element %d (%d vs %d)", what, m, i, got.Coords[m][i], want.Coords[m][i])
			}
		}
	}
	for i := range want.Vals {
		if math.Float64bits(want.Vals[i]) != math.Float64bits(got.Vals[i]) {
			t.Fatalf("%s: value bits differ at element %d", what, i)
		}
	}
}

// TestOutputOrderDeterministic is the output path's order contract: for
// every (representation, accumulator) combination, runs produce the same
// tensor in the same element order at 1, 2 and 8 threads, whether the
// shards are built cold, reused from the operand cache, or reloaded from
// the spill tier.
func TestOutputOrderDeterministic(t *testing.T) {
	enableSpill(t, 0)
	defer setShardBudget(-1)
	rng := rand.New(rand.NewSource(4242))
	// 300/17 and 260/32 leave partial edge tiles; the tiny-LLC platform
	// makes the block schedule (and so the worker-to-task mapping) vary
	// with the thread count. Half of the left nonzeros crowd into the
	// first tile row, so its tasks outgrow the model's sparse-table hint
	// and a worker's table capacity depends on which tasks it ran before.
	lm := randomMatrix(rng, 300, 400, 600)
	heavy := randomMatrix(rng, 17, 400, 1500)
	lm.Ext = append(lm.Ext, heavy.Ext...)
	lm.Ctr = append(lm.Ctr, heavy.Ctr...)
	lm.Val = append(lm.Val, heavy.Val...)
	rm := randomMatrix(rng, 260, 400, 2000)
	want := ref.MapToMatrixTensor(ref.ContractMatrix(lm, rm), lm.ExtDim, rm.ExtDim)
	want.Sort()
	combos := []struct {
		name string
		rep  InputRep
		acc  model.AccumKind
	}{
		{"hash/dense", RepHash, model.AccumDense},
		{"hash/sparse", RepHash, model.AccumSparse},
		{"sorted/dense", RepSorted, model.AccumDense},
		{"sorted/sparse", RepSorted, model.AccumSparse},
	}
	for _, c := range combos {
		var first *coo.Tensor
		check := func(what string, got *coo.Tensor) {
			t.Helper()
			if first == nil {
				first = got
				sorted := got.Clone()
				sorted.Sort()
				if !coo.Equal(sorted, want) {
					t.Fatalf("%s %s: result differs from reference", c.name, what)
				}
				return
			}
			assertSameOrder(t, c.name+" "+what, first, got)
		}
		for _, threads := range []int{1, 2, 8} {
			l, r := NewOperand(lm), NewOperand(rm)
			cfg := Config{Threads: threads, TileL: 17, TileR: 32, Accum: c.acc, Rep: c.rep, Platform: tinyLLC}
			run := func(what string, reused bool) {
				t.Helper()
				out, st, err := ContractOperands(l, r, cfg)
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, what, err)
				}
				if st.ShardReusedL != reused || st.ShardReusedR != reused {
					t.Fatalf("%s %s: shard reuse %v/%v, want %v", c.name, what, st.ShardReusedL, st.ShardReusedR, reused)
				}
				check(what, out)
			}
			tag := fmt.Sprintf("T=%d", threads)
			run(tag+" cold", false)
			run(tag+" reused", true)
			before := CacheStats()
			setShardBudget(1) // spill both shards; the next run reloads them
			run(tag+" spill-reloaded", true)
			if d := CacheStats().SpillReads - before.SpillReads; d < 2 {
				t.Fatalf("%s %s: %d spill reads, want both shards reloaded", c.name, tag, d)
			}
			l.Close()
			r.Close()
		}
	}
}

// TestOutputDimsDecode contracts operands carrying multi-mode external
// extents: the engine's division-free decode must agree with the div/mod
// de-linearization of the matrixized result, element for element; a side
// with no external modes contributes no output mode; and extents that do
// not span the operand's external extent are rejected.
func TestOutputDimsDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dimsL, dimsR := []uint64{5, 1, 12, 7}, []uint64{9, 30}
	lm := randomMatrix(rng, 5*12*7, 30, 3000)
	rm := randomMatrix(rng, 9*30, 30, 2500)
	cfg := Config{Threads: 3, TileL: 13, TileR: 16, Platform: tinyLLC}
	flat, _, err := Contract(lm, rm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coo.FromPairs(flat.Coords[0], flat.Coords[1], flat.Vals, dimsL, dimsR)
	if err != nil {
		t.Fatal(err)
	}
	lm.ExtDims, rm.ExtDims = dimsL, dimsR
	got, _, err := Contract(lm, rm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOrder(t, "multi-mode output", want, got)

	vec := randomMatrix(rng, 1, 30, 20)
	vec.ExtDims = []uint64{}
	got, _, err = Contract(vec, rm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dims) != len(dimsR) {
		t.Fatalf("no-external-mode side: output dims %v, want %v", got.Dims, dimsR)
	}

	lm.ExtDims = []uint64{5, 12, 8}
	if _, _, err := Contract(lm, rm, cfg); err == nil {
		t.Fatal("output extents spanning the wrong size were accepted")
	}
}

// faultyAcc wraps a worker's accumulator with a one-shot fault: its first
// ScatterMatches accumulates a stray update and then panics, standing in
// for any bug inside a tile task; later calls pass straight through.
type faultyAcc struct {
	accum.Accumulator
	fired bool
}

func (f *faultyAcc) ScatterMatches(ms []accum.Match) {
	if !f.fired {
		f.fired = true
		f.Upsert(0, 0, 1)
		panic("injected kernel fault")
	}
	f.Accumulator.ScatterMatches(ms)
}

// TestPanickedRunDropsWorkers panics a one-worker run inside a tile task —
// after the task has accumulated, before it drains — recovers, and demands
// that the next same-shape run start from clean accumulators: the
// interrupted worker must not go back to the freelist holding partial sums.
// The fault is planted in the parked worker the faulting run will take.
func TestPanickedRunDropsWorkers(t *testing.T) {
	base := testutil.Capture(testutil.Gauge{Name: "drain segments", Read: DrainSegmentsOutstanding})
	rng := rand.New(rand.NewSource(91))
	l := randomMatrix(rng, 120, 40, 900)
	r := randomMatrix(rng, 150, 40, 900)
	for _, rep := range []InputRep{RepHash, RepSorted} {
		for _, acc := range []model.AccumKind{model.AccumDense, model.AccumSparse} {
			cfg := Config{Threads: 1, TileL: 16, TileR: 16, Accum: acc, Rep: rep}
			want, _, err := Contract(l, r, cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := accKey{kind: acc, tl: 16, tr: 16}
			wk := takeWorker(key, 16)
			wk.acc = &faultyAcc{Accumulator: wk.acc}
			parkWorkers(key, []*worker{wk}, true)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%v/%v: the injected kernel fault did not panic", rep, acc)
					}
				}()
				_, _, _ = Contract(l, r, cfg)
			}()
			got, _, err := Contract(l, r, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameOrder(t, fmt.Sprintf("%v/%v run after a recovered panic", rep, acc), want, got)
		}
	}
	base.Assert(t)
}

// TestParkedSegmentsStayWithinBudget parks workers holding 24 MiB segments
// under three shape keys: the third would take the parked total past the
// 64 MiB budget (beside whatever earlier tests parked), so its segment is
// dropped; taking the workers back returns the gauge to where it started.
func TestParkedSegmentsStayWithinBudget(t *testing.T) {
	const n = 24 << 20 / 16 // elements of a 24 MiB segment
	start := parkedSegmentBytes.Load()
	var keys []accKey
	for i := uint64(0); i < 3; i++ {
		key := accKey{kind: model.AccumSparse, tl: 1<<30 + i, tr: 7}
		keys = append(keys, key)
		wk := takeWorker(key, 16)
		wk.seg = accum.Segment{L: make([]uint32, 0, n), R: make([]uint32, 0, n), V: make([]float64, 0, n)}
		parkWorkers(key, []*worker{wk}, true)
		if got := parkedSegmentBytes.Load(); got > parkedSegmentBudget {
			t.Fatalf("parked %d segment bytes, budget %d", got, parkedSegmentBudget)
		}
	}
	if kept := parkedSegmentBytes.Load() - start; kept >= 3*16*n {
		t.Fatalf("all three segments parked (%d bytes): the budget did not drop one", kept)
	}
	for _, key := range keys {
		parkWorkers(key, []*worker{takeWorker(key, 16)}, false)
	}
	if got := parkedSegmentBytes.Load(); got != start {
		t.Fatalf("parked segment bytes %d after taking the workers back, want %d", got, start)
	}
}

// BenchmarkOutputPath times the output pass alone — prefix sum, result
// allocation, parallel decode and copy — on a synthetic 1 Mi-nonzero
// order-6 output spread over a 30×31 task grid at GOMAXPROCS workers.
func BenchmarkOutputPath(b *testing.B) {
	const nnz = 1 << 20
	dimsL, dimsR := []uint64{64, 48, 40}, []uint64{50, 36, 70}
	const tl, tr = 4096, 4096
	outL, err := coo.NewRadix(dimsL)
	if err != nil {
		b.Fatal(err)
	}
	outR, err := coo.NewRadix(dimsR)
	if err != nil {
		b.Fatal(err)
	}
	extL, extR := uint64(64*48*40), uint64(50*36*70)
	nL, nR := int((extL+tl-1)/tl), int((extR+tr-1)/tr)
	threads := runtime.GOMAXPROCS(0)
	p := outputPlan{
		spans:   make([]taskSpan, nL*nR),
		workers: make([]*worker, threads),
		tl:      tl, tr: tr, outL: outL, outR: outR,
	}
	for i := 0; i < nL; i++ {
		p.nonEmptyL = append(p.nonEmptyL, i)
	}
	for j := 0; j < nR; j++ {
		p.nonEmptyR = append(p.nonEmptyR, j)
	}
	for w := range p.workers {
		p.workers[w] = &worker{}
	}
	rng := rand.New(rand.NewSource(1))
	per := nnz / len(p.spans)
	for t := range p.spans {
		w := t % threads
		seg := &p.workers[w].seg
		sideL := min(tl, extL-uint64(p.nonEmptyL[t/nR])*tl)
		sideR := min(tr, extR-uint64(p.nonEmptyR[t%nR])*tr)
		p.spans[t] = taskSpan{seg: seg.Len(), n: per, w: int32(w)}
		for k := 0; k < per; k++ {
			seg.Append(uint32(rng.Uint64()%sideL), uint32(rng.Uint64()%sideR), 1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st Stats
		if out := writeOutput(p, threads, &st); out.NNZ() != per*len(p.spans) {
			b.Fatalf("wrote %d elements", out.NNZ())
		}
	}
}
