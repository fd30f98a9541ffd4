package core

import (
	"fmt"

	"fastcc/internal/accum"
	"fastcc/internal/hashtable"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
)

// This file is the tile microkernel family: one specialized inner loop per
// (representation, accumulator) combination, replacing the single generic
// co-iteration loop that branched on the accumulator type inside every tile.
// The generic loop survives as the KernelGeneric table entry — it is the
// baseline the -exp hotpath experiment measures the specializations against,
// and the fallback for accumulators outside the dense/sparse pair.
//
// Dispatch happens ONCE per run: plan() resolves Decision.Kernel, execute()
// indexes kernelTable with it, and every tile task of the run goes through
// the same direct function value. Inside a specialized kernel there are no
// interface calls — the accumulator is the worker's typed field, and the
// multiply-accumulate runs in the accumulator's ScatterOuter with the flat
// scatter exposed to the compiler.
//
// The hash kernels additionally replace the per-key serial Lookup with
// Sealed.LookupBatch: the iterated side's flat key array is consumed in
// chunks of the platform's probe depth, so up to ProbeBatch home-slot loads
// overlap in the load queue instead of serializing hash → load → compare
// chains (paper Section 4.3's probe-bound regime).
//
// Every kernel preserves the generic loop's accumulation order exactly —
// same iterate-side selection and tie-breaking, same dense-index iteration
// order, same lps-major scatter — so specialized and generic runs agree bit
// for bit, which the equivalence suite and the hotpath harness both assert.

// tileKernel runs one tile-pair contraction and drains the tile's nonzeros,
// tile-relative, onto the end of the worker's segment. i/j are tile indices
// into the shards; probeBatch the platform probe depth (hash kernels only).
type tileKernel func(ls, rs *Shard, i, j int, wk *worker, ctr *metrics.Counters, probeBatch int)

// kernelTable maps a resolved model.KernelID to its tile-pair kernel. The
// KernelAuto slot is nil on purpose: plan() must resolve Auto before
// execute() indexes the table (selectKernel guards against it anyway).
var kernelTable = [model.NumKernels]tileKernel{
	model.KernelGeneric:      runGeneric,
	model.KernelHashDense:    runHashDense,
	model.KernelHashSparse:   runHashSparse,
	model.KernelSortedDense:  runSortedDense,
	model.KernelSortedSparse: runSortedSparse,
}

// selectKernel resolves the table entry for a decision, falling back to the
// generic loop for unresolved or out-of-range ids.
func selectKernel(id model.KernelID) tileKernel {
	if int(id) < len(kernelTable) && id > model.KernelAuto {
		if k := kernelTable[id]; k != nil {
			return k
		}
	}
	return runGeneric
}

// resolveKernel fills dec.Kernel from the config: an explicit cfg.Kernel is
// validated against the run's representation and accumulator kind (a kernel
// compiled for the wrong tile form would read the wrong shard arrays);
// KernelAuto derives the specialization from (rep, kind).
func resolveKernel(dec *model.Decision, cfg Config) error {
	if cfg.Kernel == model.KernelAuto {
		dec.Kernel = model.SelectKernel(cfg.Rep == RepSorted, dec.Kind)
		return nil
	}
	want := model.SelectKernel(cfg.Rep == RepSorted, dec.Kind)
	if cfg.Kernel != model.KernelGeneric && cfg.Kernel != want {
		return fmt.Errorf("core: kernel %v incompatible with rep=%v accum=%v (want %v or generic)",
			cfg.Kernel, cfg.Rep, dec.Kind, want)
	}
	dec.Kernel = cfg.Kernel
	return nil
}

func runGeneric(ls, rs *Shard, i, j int, wk *worker, ctr *metrics.Counters, _ int) {
	if ls.Key.Rep == RepSorted {
		contractTilePairSorted(ls.sortedAt(i), rs.sortedAt(j), wk, ctr)
	} else {
		contractTilePair(ls.sealedAt(i), rs.sealedAt(j), wk, ctr)
	}
}

// chooseSides orders a hash tile pair for co-iteration: iterate the table
// with fewer DISTINCT KEYS and probe the other. The intersection is the
// same either way; the query count is the iterated side's key count, so the
// cheaper side to iterate is the one with fewer keys — Sealed.Len(), not
// pair count. Ties iterate the left table, matching the generic loop so
// specialized kernels accumulate in the identical order.
//
//fastcc:hotpath
func chooseSides(hl, hr *hashtable.Sealed) (iter, probeInto *hashtable.Sealed, swapped bool) {
	if hr.Len() < hl.Len() {
		return hr, hl, true
	}
	return hl, hr, false
}

func runHashDense(ls, rs *Shard, i, j int, wk *worker, ctr *metrics.Counters, probeBatch int) {
	contractHashDense(ls.sealedAt(i), rs.sealedAt(j), wk, ctr, probeBatch)
}

func runHashSparse(ls, rs *Shard, i, j int, wk *worker, ctr *metrics.Counters, probeBatch int) {
	contractHashSparse(ls.sealedAt(i), rs.sealedAt(j), wk, ctr, probeBatch)
}

func runSortedDense(ls, rs *Shard, i, j int, wk *worker, ctr *metrics.Counters, _ int) {
	contractSortedDense(ls.sortedAt(i), rs.sortedAt(j), wk, ctr)
}

func runSortedSparse(ls, rs *Shard, i, j int, wk *worker, ctr *metrics.Counters, _ int) {
	contractSortedSparse(ls.sortedAt(i), rs.sortedAt(j), wk, ctr)
}

// contractHashDense is the RepHash × AccumDense microkernel: batched probes
// over the iterated side's flat key array, dense-grid scatter per match.
//
//fastcc:hotpath
func contractHashDense(hl, hr *hashtable.Sealed, wk *worker, ctr *metrics.Counters, probeBatch int) {
	iter, probeInto, swapped := chooseSides(hl, hr)
	keys := iter.Keys()
	d := wk.dense
	var out [hashtable.LookupBatchMax]int32
	var ms [hashtable.LookupBatchMax]accum.Match
	var volume, updates, batches, hits int64
	for base := 0; base < len(keys); base += probeBatch {
		n := len(keys) - base
		if n > probeBatch {
			n = probeBatch
		}
		h := probeInto.LookupBatch(keys[base:base+n], out[:n])
		batches++
		if h == 0 {
			continue
		}
		hits += int64(h)
		// Gather the chunk's matched run pairs, then scatter them in ONE
		// accumulator call — the call boundary and the tile field loads
		// amortize over the chunk instead of recurring per matched key.
		nm := 0
		for bi := 0; bi < n; bi++ {
			li := out[bi]
			if li < 0 {
				continue
			}
			ips := iter.PairsAt(base + bi)
			pps := probeInto.PairsAt(int(li))
			volume += int64(len(ips)) + int64(len(pps))
			updates += int64(len(ips)) * int64(len(pps))
			if swapped {
				ms[nm] = accum.Match{L: pps, R: ips}
			} else {
				ms[nm] = accum.Match{L: ips, R: pps}
			}
			nm++
		}
		d.ScatterMatches(ms[:nm])
	}
	queries := int64(len(keys))
	ctr.AddQueries(queries)
	ctr.AddVolume(volume)
	ctr.AddUpdates(updates)
	ctr.AddProbeBatches(batches, hits, queries-hits)
	d.Drain(&wk.seg)
}

// contractHashSparse is the RepHash × AccumSparse microkernel: batched
// probes feeding the amortized key-merge of the sparse accumulator's
// open-addressing table.
//
//fastcc:hotpath
func contractHashSparse(hl, hr *hashtable.Sealed, wk *worker, ctr *metrics.Counters, probeBatch int) {
	iter, probeInto, swapped := chooseSides(hl, hr)
	keys := iter.Keys()
	s := wk.sparse
	var out [hashtable.LookupBatchMax]int32
	var ms [hashtable.LookupBatchMax]accum.Match
	var volume, updates, batches, hits int64
	for base := 0; base < len(keys); base += probeBatch {
		n := len(keys) - base
		if n > probeBatch {
			n = probeBatch
		}
		h := probeInto.LookupBatch(keys[base:base+n], out[:n])
		batches++
		if h == 0 {
			continue
		}
		hits += int64(h)
		nm := 0
		for bi := 0; bi < n; bi++ {
			li := out[bi]
			if li < 0 {
				continue
			}
			ips := iter.PairsAt(base + bi)
			pps := probeInto.PairsAt(int(li))
			volume += int64(len(ips)) + int64(len(pps))
			updates += int64(len(ips)) * int64(len(pps))
			if swapped {
				ms[nm] = accum.Match{L: pps, R: ips}
			} else {
				ms[nm] = accum.Match{L: ips, R: pps}
			}
			nm++
		}
		s.ScatterMatches(ms[:nm])
	}
	queries := int64(len(keys))
	ctr.AddQueries(queries)
	ctr.AddVolume(volume)
	ctr.AddUpdates(updates)
	ctr.AddProbeBatches(batches, hits, queries-hits)
	s.Drain(&wk.seg)
}

// contractSortedDense is the RepSorted × AccumDense microkernel: the sorted
// merge walk with the dense scatter inlined per matched key. No probes, so
// no batch counters; queries count merge-loop iterations like the generic
// sorted loop does.
//
//fastcc:hotpath
func contractSortedDense(sl, sr *sortedTile, wk *worker, ctr *metrics.Counters) {
	d := wk.dense
	var ms [hashtable.LookupBatchMax]accum.Match
	nm := 0
	var queries, volume, updates int64
	i, j := 0, 0
	for i < len(sl.keys) && j < len(sr.keys) {
		queries++
		switch {
		case sl.keys[i] < sr.keys[j]:
			i++
		case sl.keys[i] > sr.keys[j]:
			j++
		default:
			lps := sl.pairs[sl.offs[i]:sl.offs[i+1]]
			rps := sr.pairs[sr.offs[j]:sr.offs[j+1]]
			volume += int64(len(lps)) + int64(len(rps))
			updates += int64(len(lps)) * int64(len(rps))
			ms[nm] = accum.Match{L: lps, R: rps}
			if nm++; nm == len(ms) {
				d.ScatterMatches(ms[:nm])
				nm = 0
			}
			i++
			j++
		}
	}
	d.ScatterMatches(ms[:nm])
	ctr.AddQueries(queries)
	ctr.AddVolume(volume)
	ctr.AddUpdates(updates)
	d.Drain(&wk.seg)
}

// contractSortedSparse is the RepSorted × AccumSparse microkernel.
//
//fastcc:hotpath
func contractSortedSparse(sl, sr *sortedTile, wk *worker, ctr *metrics.Counters) {
	s := wk.sparse
	var ms [hashtable.LookupBatchMax]accum.Match
	nm := 0
	var queries, volume, updates int64
	i, j := 0, 0
	for i < len(sl.keys) && j < len(sr.keys) {
		queries++
		switch {
		case sl.keys[i] < sr.keys[j]:
			i++
		case sl.keys[i] > sr.keys[j]:
			j++
		default:
			lps := sl.pairs[sl.offs[i]:sl.offs[i+1]]
			rps := sr.pairs[sr.offs[j]:sr.offs[j+1]]
			volume += int64(len(lps)) + int64(len(rps))
			updates += int64(len(lps)) * int64(len(rps))
			ms[nm] = accum.Match{L: lps, R: rps}
			if nm++; nm == len(ms) {
				s.ScatterMatches(ms[:nm])
				nm = 0
			}
			i++
			j++
		}
	}
	s.ScatterMatches(ms[:nm])
	ctr.AddQueries(queries)
	ctr.AddVolume(volume)
	ctr.AddUpdates(updates)
	s.Drain(&wk.seg)
}
