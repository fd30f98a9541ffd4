package core

import (
	"fastcc/internal/accum"
	"fastcc/internal/coo"
	"fastcc/internal/hashtable"
	"fastcc/internal/model"
)

// worker holds the per-worker reusable accumulator, the match batch the
// co-iteration loops fill between ScatterMatches calls, and the drain
// segment. Every tile task the worker runs drains onto the end of seg; the
// output pass reads the segments once all tasks are done.
type worker struct {
	acc accum.Accumulator
	ms  [hashtable.LookupBatchMax]accum.Match
	seg accum.Segment
}

func newWorker(kind model.AccumKind, tl, tr uint64, sparseHint int) *worker {
	if kind == model.AccumSparse {
		return &worker{acc: accum.NewSparse(sparseHint)}
	}
	return &worker{acc: accum.NewDense(uint32(tl), uint32(tr))}
}

// tileNNZHint sizes the sparse accumulator from the model's expected
// nonzeros per tile, bounded to keep initial allocations modest.
func tileNNZHint(dec model.Decision, tl, tr uint64) int {
	e := dec.PNonzero * float64(tl) * float64(tr)
	switch {
	case !(e >= 64):
		// Covers e < 64 AND a NaN expectation (PNonzero NaN or zero-extent
		// degenerate input): every comparison with NaN is false, so the old
		// `e < 64` fallthrough reached int(NaN) — implementation-defined.
		return 64
	case e > 1<<22:
		return 1 << 22
	default:
		return int(e)
	}
}

// buildSealedTiles builds and seals the hash tables of the non-empty tiles
// this worker owns (idx mod teamSize == w over the partition's non-empty
// list). Each tile's nonzeros sit in a contiguous partition segment, so a
// worker reads only the bytes of its own tiles — no scan-and-filter over
// the whole operand. The mutable table is sized from the model's
// distinct-key estimate (its hint is a KEY count, not a pair count) and
// sealed into the read-only SoA form the contract phase iterates.
//
// Workers write disjoint slots of tables, so no synchronization is needed
// beyond the team barrier.
//
//fastcc:hotpath
func buildSealedTiles(tables []*hashtable.Sealed, part *coo.TilePartition, ctrDim uint64, w, teamSize int) {
	ne := part.NonEmpty()
	for idx := w; idx < len(ne); idx += teamSize {
		i := ne[idx]
		lo, hi := part.Offs[i], part.Offs[i+1]
		t := hashtable.NewSliceTable(model.ExpectedDistinctKeys(hi-lo, ctrDim))
		for k := lo; k < hi; k++ {
			t.Insert(part.Ctr[k], part.Intra[k], part.Val[k])
		}
		tables[i] = t.Seal()
	}
}
