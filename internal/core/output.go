package core

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"fastcc/internal/accum"
	"fastcc/internal/coo"
	"fastcc/internal/mempool"
	"fastcc/internal/model"
	"fastcc/internal/scheduler"
)

// The output path (DESIGN.md, "Output path"): tile tasks drain onto their
// worker's segment and record a taskSpan; a prefix sum over the spans in
// task order sizes the result once; a parallel pass over output-element
// ranges copies the values and decodes the offsets onto their tile bases.

// accKey is the accumulator-shape compatibility key for worker recycling.
type accKey struct {
	kind   model.AccumKind
	tl, tr uint64
}

// workerFree parks per-worker accumulators and drain segments between runs
// so repeated contractions with the same tile shape stop reallocating
// tile-sized buffers and output staging.
var workerFree = mempool.NewFreelist[accKey, *worker](0)

// parkedSegmentBudget bounds the drain-segment bytes held by parked workers,
// summed over every shape key: a segment that would push the total past it
// is dropped at park time, so however many shapes have run, parked output
// staging never pins more than this for the process lifetime.
const parkedSegmentBudget = 64 << 20

// parkedSegmentBytes is the drain-segment storage parked workers hold.
var parkedSegmentBytes atomic.Int64

// segmentsOut counts workers — each owning one drain segment — taken for a
// run and not yet parked: the output path's leak-accounting gauge.
var segmentsOut atomic.Int64

// DrainSegmentsOutstanding reports how many drain segments are checked out
// of the engine's worker freelist. Every run parks (or, after a panic,
// drops) the segments it took before returning, canceled or not, so the
// gauge returns to its baseline
// once contractions finish; a drift means a path lost a worker.
func DrainSegmentsOutstanding() int64 { return segmentsOut.Load() }

// takeWorker vends a parked worker for the shape key, or builds one.
func takeWorker(key accKey, sparseHint int) *worker {
	segmentsOut.Add(1)
	if wk, ok := workerFree.Get(key); ok {
		parkedSegmentBytes.Add(-int64(wk.seg.CapBytes()))
		return wk //fastcc:owned -- the run keeps it in its workers slice, and parkWorkers puts it back when the run ends
	}
	wk := newWorker(key.kind, key.tl, key.tr, sparseHint)
	// Bind the fresh accumulator to its shape key so a future Put under any
	// other key is a provenance panic in checked builds, not a wrong-shaped
	// vend.
	workerFree.Note(key, wk)
	return wk
}

// parkWorkers returns the run's workers to the gauge and, when the task loop
// finished (every task drained its accumulator, or was never started),
// parks them with their segments emptied. A run whose task loop panicked
// drops its workers: an interrupted task leaves partial sums behind.
func parkWorkers(key accKey, workers []*worker, finished bool) {
	for _, wk := range workers {
		if wk == nil {
			continue
		}
		segmentsOut.Add(-1)
		if !finished {
			continue
		}
		wk.seg.Reset()
		clear(wk.ms[:]) // a parked worker must not keep the run's shards reachable
		b := int64(wk.seg.CapBytes())
		if parkedSegmentBytes.Add(b) > parkedSegmentBudget {
			parkedSegmentBytes.Add(-b)
			wk.seg, b = accum.Segment{}, 0
		}
		if !workerFree.Put(key, wk) {
			parkedSegmentBytes.Add(-b)
		}
	}
}

// taskSpan locates one tile task's drained nonzeros: n elements starting at
// seg in worker w's segment, bound for out.. in the result.
type taskSpan struct {
	seg, n, out int
	w           int32
}

// outputRadix resolves one side's output extents (nil ExtDims: the single
// matrixized extent) and checks they span exactly the operand's ExtDim.
func outputRadix(m *coo.Matrix) (*coo.Radix, error) {
	dims := m.ExtDims
	if dims == nil {
		dims = []uint64{m.ExtDim}
	}
	size, err := coo.LinearSize(dims)
	if err != nil {
		return nil, err
	}
	if size != m.ExtDim {
		return nil, fmt.Errorf("core: output extents %v span %d positions, operand external extent is %d", dims, size, m.ExtDim)
	}
	return coo.NewRadix(dims)
}

// outputPlan is what the output pass needs from a finished contract phase.
type outputPlan struct {
	spans                []taskSpan
	workers              []*worker
	nonEmptyL, nonEmptyR []int
	tl, tr               uint64
	outL, outR           *coo.Radix
}

// outputParallelMin is the output size below which the pass runs on the
// calling goroutine: spawning workers costs more than writing the result.
const outputParallelMin = 1 << 14

// writeOutput assembles the result tensor from the workers' segments,
// timing the prefix sum and allocation as ConcatTime and the parallel write
// as DelinearizeTime.
func writeOutput(p outputPlan, threads int, st *Stats) *coo.Tensor {
	t0 := time.Now()
	n := 0
	for k := range p.spans {
		p.spans[k].out = n
		n += p.spans[k].n
	}
	parts := threads
	if n < outputParallelMin {
		parts = 1
	}
	dims := slices.Concat(p.outL.Dims(), p.outR.Dims())
	out := &coo.Tensor{Dims: dims, Coords: make([][]uint64, len(dims))}
	// The runtime zeroes each array on the allocating goroutine, so the
	// arrays — every mode's coordinates, then (m == len(dims)) the values —
	// are allocated by all workers at once.
	scheduler.Static(parts, func(w, parts int) {
		for m := w; m <= len(out.Coords); m += parts {
			if m == len(out.Coords) {
				out.Vals = make([]float64, n)
			} else {
				out.Coords[m] = make([]uint64, n)
			}
		}
	})
	st.ConcatTime = time.Since(t0)

	t0 = time.Now()
	scheduler.Static(parts, func(w, parts int) {
		p.write(out, n*w/parts, n*(w+1)/parts)
	})
	st.DelinearizeTime = time.Since(t0)
	return out
}

// write fills result elements [lo, hi) from the spans covering them.
func (p *outputPlan) write(out *coo.Tensor, lo, hi int) {
	coordsL, coordsR := out.Coords[:len(p.outL.Dims())], out.Coords[len(p.outL.Dims()):]
	decL, decR := p.outL.NewTileDecoder(), p.outR.NewTileDecoder()
	nR := len(p.nonEmptyR)
	t := sort.Search(len(p.spans), func(t int) bool { return p.spans[t].out+p.spans[t].n > lo })
	for pos := lo; pos < hi; t++ {
		sp := p.spans[t]
		if sp.n == 0 {
			continue
		}
		a, b := pos-sp.out, min(sp.n, hi-sp.out)
		seg := &p.workers[sp.w].seg
		s, e := sp.seg+a, sp.seg+b
		decL.Decode(coordsL, pos, uint64(p.nonEmptyL[t/nR])*p.tl, p.tl, seg.L[s:e])
		decR.Decode(coordsR, pos, uint64(p.nonEmptyR[t%nR])*p.tr, p.tr, seg.R[s:e])
		copy(out.Vals[pos:], seg.V[s:e])
		pos += b - a
	}
}
