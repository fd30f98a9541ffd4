package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fastcc/internal/hashtable"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
)

// TestIterateSmallerSideByDistinctKeys is the heuristic regression test: an
// asymmetric tile pair where the LEFT table has many distinct keys with one
// pair each and the RIGHT has few keys with many pairs each. Iterating by
// distinct-key count means the query count equals the right side's key
// count; a pair-count (or fixed-side) heuristic would iterate the left. The
// hash loop must make that choice under either accumulator — the
// accumulation order (and so the output bits) depends on it.
func TestIterateSmallerSideByDistinctKeys(t *testing.T) {
	const manyKeys, fewKeys, pairsPerKey = 90, 7, 40
	big := hashtable.NewSliceTable(manyKeys)
	for k := 0; k < manyKeys; k++ {
		big.Insert(uint64(k), uint32(k%31), 1)
	}
	small := hashtable.NewSliceTable(fewKeys)
	for k := 0; k < fewKeys; k++ {
		for p := 0; p < pairsPerKey; p++ {
			small.Insert(uint64(k), uint32(p), 1) // pair count 280 >> big's 90
		}
	}
	hl, hr := big.Seal(), small.Seal()
	for _, dir := range []struct {
		name   string
		hl, hr *hashtable.Sealed
	}{{"small-right", hl, hr}, {"small-left", hr, hl}} {
		iter, probeInto, _ := chooseSides(dir.hl, dir.hr)
		if iter.Len() != fewKeys || probeInto.Len() != manyKeys {
			t.Fatalf("%s: chooseSides iterated the %d-key side", dir.name, iter.Len())
		}
		for _, kind := range []model.AccumKind{model.AccumDense, model.AccumSparse} {
			var ctr metrics.Counters
			wk := newWorker(kind, 128, 64, 0)
			contractHash(dir.hl, dir.hr, wk, &ctr, hashtable.LookupBatchMax)
			if q := ctr.Snapshot().Queries; q != fewKeys {
				t.Fatalf("%s/%v: %d queries, want %d (cheaper side not iterated)",
					dir.name, kind, q, fewKeys)
			}
		}
	}
}

// TestHashKernelProbeCounters checks the per-loop accounting: every hash
// run reports probe batches whose hits and misses add up to its queries,
// and every sorted run, which merges instead of probing, reports none.
func TestHashKernelProbeCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := randomMatrix(rng, 200, 40, 1500)
	r := randomMatrix(rng, 180, 40, 1300)
	for _, rep := range []InputRep{RepHash, RepSorted} {
		for _, acc := range []model.AccumKind{model.AccumDense, model.AccumSparse} {
			var ctr metrics.Counters
			if _, _, err := Contract(l, r, Config{
				Threads: 2, TileL: 32, TileR: 32, Rep: rep, Accum: acc, Platform: tinyLLC, Counters: &ctr,
			}); err != nil {
				t.Fatalf("%v/%v: %v", rep, acc, err)
			}
			s := ctr.Snapshot()
			if s.Queries == 0 {
				t.Fatalf("%v/%v: no queries recorded", rep, acc)
			}
			if rep == RepSorted {
				if s.ProbeBatches != 0 || s.ProbeHits != 0 || s.ProbeMisses != 0 {
					t.Fatalf("sorted/%v recorded probe batches: %+v", acc, s)
				}
				continue
			}
			if s.ProbeBatches == 0 {
				t.Fatalf("hash/%v: no probe batches recorded", acc)
			}
			if s.ProbeHits+s.ProbeMisses != s.Queries {
				t.Fatalf("hash/%v: hits %d + misses %d != queries %d", acc, s.ProbeHits, s.ProbeMisses, s.Queries)
			}
			if s.ProbeHits == 0 {
				t.Fatalf("hash/%v: contraction with output found no probe hits", acc)
			}
		}
	}
}

// TestTileNNZHintClamps pins the sparse-hint clamp boundaries, including the
// NaN expectation a degenerate PNonzero produces (int(NaN) is
// implementation-defined, so NaN must take the floor branch explicitly).
func TestTileNNZHintClamps(t *testing.T) {
	mk := func(p float64) model.Decision { return model.Decision{PNonzero: p} }
	cases := []struct {
		name   string
		dec    model.Decision
		tl, tr uint64
		want   int
	}{
		{"below floor", mk(1e-9), 100, 100, 64},
		{"at floor", mk(1), 8, 8, 64},
		{"just above floor", mk(1), 13, 5, 65},
		{"interior", mk(0.5), 1000, 1000, 500000},
		{"above ceiling", mk(1), 1 << 16, 1 << 16, 1 << 22},
		{"zero pnonzero", mk(0), 1000, 1000, 64},
		{"nan pnonzero", mk(math.NaN()), 1000, 1000, 64},
		{"nan from inf times zero", mk(math.Inf(1)), 0, 1000, 64},
	}
	for _, c := range cases {
		if got := tileNNZHint(c.dec, c.tl, c.tr); got != c.want {
			t.Errorf("%s: tileNNZHint = %d, want %d", c.name, got, c.want)
		}
	}
}

// benchTilePairData builds one asymmetric tile pair in both representations
// with a realistic key overlap, plus the matching workers.
type benchTilePairData struct {
	hl, hr *hashtable.Sealed
	sl, sr *sortedTile
}

func newBenchTilePair(nKeysL, nKeysR, pairsPerKey int) *benchTilePairData {
	mkSealed := func(nKeys, stride int) *hashtable.Sealed {
		tb := hashtable.NewSliceTable(nKeys)
		for k := 0; k < nKeys; k++ {
			for p := 0; p < pairsPerKey; p++ {
				tb.Insert(uint64(k*stride), uint32((k+p)%32), 1.25)
			}
		}
		return tb.Seal()
	}
	mkSorted := func(nKeys, stride int) *sortedTile {
		st := &sortedTile{}
		for k := 0; k < nKeys; k++ {
			st.keys = append(st.keys, uint64(k*stride))
			st.offs = append(st.offs, int32(len(st.pairs)))
			for p := 0; p < pairsPerKey; p++ {
				st.pairs = append(st.pairs, hashtable.Pair{Idx: uint32((k + p) % 32), Val: 1.25})
			}
		}
		st.offs = append(st.offs, int32(len(st.pairs)))
		return st
	}
	// Left keys stride 1, right stride 2: half the smaller side intersects.
	return &benchTilePairData{
		hl: mkSealed(nKeysL, 1), hr: mkSealed(nKeysR, 2),
		sl: mkSorted(nKeysL, 1), sr: mkSorted(nKeysR, 2),
	}
}

// BenchmarkTilePair times the two co-iteration loops on one tile pair per
// (rep, accum) combination: `go test -bench TilePair ./internal/core`.
func BenchmarkTilePair(b *testing.B) {
	const tl, tr = 64, 32
	d := newBenchTilePair(1024, 512, 8)
	for _, kind := range []model.AccumKind{model.AccumDense, model.AccumSparse} {
		run := func(name string, fn func(wk *worker)) {
			b.Run(fmt.Sprintf("%s/%v", name, kind), func(b *testing.B) {
				wk := newWorker(kind, tl, tr, 1<<12)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fn(wk)
					wk.seg.Reset()
				}
			})
		}
		run("hash", func(wk *worker) { contractHash(d.hl, d.hr, wk, nil, hashtable.LookupBatchMax) })
		run("sorted", func(wk *worker) { contractSorted(d.sl, d.sr, wk, nil) })
	}
}
