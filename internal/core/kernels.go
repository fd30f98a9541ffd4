package core

import (
	"fastcc/internal/accum"
	"fastcc/internal/hashtable"
	"fastcc/internal/metrics"
)

// This file is the contract step's co-iteration (Algorithm 6): one loop per
// input representation. contractHash walks the iterated table's flat key
// array and probes the other table in batches; contractSorted merge-walks
// two sorted tiles. Both gather the matching pair runs into the worker's
// match batch and hand each batch to the worker's accumulator in one
// ScatterMatches call, so the interface call is paid once per batch of up
// to LookupBatchMax matches, not once per multiply-accumulate; the scatter
// bodies themselves stay specialized per accumulator type.
//
// The hash loop replaces the per-key serial Lookup with Sealed.LookupBatch:
// the iterated side's keys are consumed in chunks of the platform's probe
// depth, so up to ProbeBatch home-slot loads overlap in the load queue
// instead of serializing hash → load → compare chains (paper Section 4.3's
// probe-bound regime).
//
// execute picks the loop once per run from the shards' representation.

// chooseSides orders a hash tile pair for co-iteration: iterate the table
// with fewer DISTINCT KEYS and probe the other. The intersection is the
// same either way; the query count is the iterated side's key count, so the
// cheaper side to iterate is the one with fewer keys — Sealed.Len(), not
// pair count. Ties iterate the left table, so the accumulation order (and
// with it every output bit) is a function of the operands alone.
//
//fastcc:hotpath
func chooseSides(hl, hr *hashtable.Sealed) (iter, probeInto *hashtable.Sealed, swapped bool) {
	if hr.Len() < hl.Len() {
		return hr, hl, true
	}
	return hl, hr, false
}

// contractHash computes one output tile from two sealed hash tiles: batched
// probes over the iterated side's keys, each batch's matches scattered into
// the worker's accumulator, then the tile drained, tile-relative, onto the
// end of the worker's segment. probeBatch is the platform probe depth.
//
//fastcc:hotpath
func contractHash(hl, hr *hashtable.Sealed, wk *worker, ctr *metrics.Counters, probeBatch int) {
	iter, probeInto, swapped := chooseSides(hl, hr)
	keys := iter.Keys()
	acc, ms := wk.acc, &wk.ms
	var out [hashtable.LookupBatchMax]int32
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
		acc.ScatterMatches(ms[:nm])
	}
	queries := int64(len(keys))
	ctr.AddQueries(queries)
	ctr.AddVolume(volume)
	ctr.AddUpdates(updates)
	ctr.AddProbeBatches(batches, hits, queries-hits)
	acc.Drain(&wk.seg)
}

// contractSorted computes one output tile by merging the two tiles' sorted
// key arrays; matching keys' pair runs are batched and scattered into the
// worker's accumulator, then the tile is drained onto the worker's segment.
// No probes, so no batch counters; queries count merge-loop iterations.
//
//fastcc:hotpath
func contractSorted(sl, sr *sortedTile, wk *worker, ctr *metrics.Counters) {
	acc, ms := wk.acc, &wk.ms
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
				acc.ScatterMatches(ms[:nm])
				nm = 0
			}
			i++
			j++
		}
	}
	acc.ScatterMatches(ms[:nm])
	ctr.AddQueries(queries)
	ctr.AddVolume(volume)
	ctr.AddUpdates(updates)
	acc.Drain(&wk.seg)
}
