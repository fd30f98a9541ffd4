package main

import (
	"time"

	"fastcc"
	"fastcc/internal/gen"
)

type named struct{ name, unit string }

// phaseMetrics are the pipeline phases the engine reports in Stats, in
// pipeline order. On serve-churn only build and contract are observable:
// the server's response carries no other phase, so the rest read 0 there.
var phaseMetrics = []named{
	{"coo.linearize_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.contract_ms", "ms"},
	{"core.concat_ms", "ms"},
	{"coo.delinearize_ms", "ms"},
}

// scalingMetrics are T=1 time over T=nproc time of one of phaseMetrics.
var scalingMetrics = []struct {
	name  string
	phase int
}{
	{"core.build_scaling", 1},
	{"core.contract_scaling", 2},
	{"coo.delinearize_scaling", 4},
}

var modelMetrics = []named{
	{"model.tasks", "count"},
	{"model.blocks", "count"},
	{"model.tile_l", "count"},
	{"model.tile_r", "count"},
	{"model.accum_dense", "bool"},
}

// perLayer lists every per-layer metric a traced run prints, in the order
// of BENCHMARK.json's per_layer. Metrics with a ".<case>" suffix are per
// case; a traced run prints every one, and those of cases its workload
// does not run read 0.
var perLayer = func() []named {
	scaling := func(suffix string) (out []named) {
		for _, m := range scalingMetrics {
			out = append(out, named{m.name + suffix, "x"})
		}
		return out
	}
	var out []named
	out = append(out, phaseMetrics...)
	out = append(out, scaling("")...)
	out = append(out,
		named{"hashtable.probe_hit_ratio", "ratio"},
		named{"hashtable.probe_batches", "count"},
		named{"accum.updates", "count"},
		named{"accum.workspace_words", "words"},
		named{"core.queries", "count"},
		named{"core.volume", "count"},
		named{"core.cache_hit_ratio", "ratio"},
		named{"core.cache_evictions", "count"},
		named{"core.cache_evicted_mb", "MiB"},
		named{"core.cache_rebuilds", "count"},
		named{"core.shard_reused_ratio", "ratio"},
		named{"spill.writes", "count"},
		named{"spill.reads", "count"},
		named{"spill.written_mb", "MiB"},
		named{"spill.reload_ratio", "ratio"},
		named{"spill.fallbacks", "count"},
		named{"server.contract_ms", "ms"},
		named{"server.overhead_ms", "ms"},
		named{"server.fetch_ms", "ms"},
		named{"server.upload_ms", "ms"},
		named{"scheduler.rejected", "count"},
		named{"runtime.gc_cycles", "count"},
		named{"runtime.gc_pause_ms", "ms"},
		named{"trace.overhead_ratio", "ratio"},
		named{"failed_ratio", "ratio"},
	)
	for _, c := range frosttCases {
		suffix := "." + gen.ContractionName(c.tensor, c.modes)
		for _, m := range phaseMetrics {
			out = append(out, named{m.name + suffix, m.unit})
		}
		out = append(out, scaling(suffix)...)
		for _, m := range modelMetrics {
			out = append(out, named{m.name + suffix, m.unit})
		}
	}
	for _, mol := range gen.Molecules {
		for _, kind := range gen.QCKinds {
			suffix := "." + mol.Name + "-" + kind
			out = append(out, named{"core.contract_ms" + suffix, "ms"}, named{"coo.delinearize_ms" + suffix, "ms"}, named{"model.tasks" + suffix, "count"})
		}
	}
	out = append(out, named{"core.build_ms.uber-123", "ms"}, named{"core.contract_ms.uber-123", "ms"})
	return out
}()

// phaseTimes are an op's pipeline phase times in ms, as the engine's Stats
// or the server's response report them.
func phaseTimes(o *op) ([]float64, bool) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	switch {
	case o.stats != nil:
		st := o.stats
		return []float64{ms(st.Linearize), ms(st.Build), ms(st.Contract), ms(st.Concat), ms(st.Delinearize)}, true
	case o.resp != nil:
		return []float64{0, float64(o.resp.BuildNS) / 1e6, float64(o.resp.ContractNS) / 1e6, 0, 0}, true
	}
	return nil, false
}

// phaseStats are the median and mean of each phase over the ops of one
// case (or of all ops, under the case "").
func phaseStats(ops []op, kase string) (med, mean []float64) {
	cols := make([][]float64, len(phaseMetrics))
	for i := range ops {
		if ops[i].failed() || (kase != "" && ops[i].kase != kase) {
			continue
		}
		if ts, ok := phaseTimes(&ops[i]); ok {
			for j, t := range ts {
				cols[j] = append(cols[j], t)
			}
		}
	}
	med, mean = make([]float64, len(cols)), make([]float64, len(cols))
	for j, c := range cols {
		med[j] = median(c)
		for _, t := range c {
			mean[j] += t / float64(len(c))
		}
	}
	return med, mean
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills m with every per-layer metric from a traced run's
// phases: plain is untraced at nproc workers, traced the same loop traced,
// t1 traced at one worker.
func layerMetrics(m map[string]metric, plain, traced, t1 phase, tr *tracer) {
	v := map[string]float64{}
	cases := map[string]bool{"": true}
	for i := range traced.ops {
		cases[traced.ops[i].kase] = true
	}
	for c := range cases {
		suffix := ""
		if c != "" {
			suffix = "." + c
		}
		med, mean := phaseStats(traced.ops, c)
		_, mean1 := phaseStats(t1.ops, c)
		for j, pm := range phaseMetrics {
			v[pm.name+suffix] = med[j]
		}
		for _, m := range scalingMetrics {
			v[m.name+suffix] = ratio(mean1[m.phase], mean[m.phase])
		}
	}

	var n, reused, rejected int
	var k struct{ hits, misses, batches, updates, queries, volume, workspace int64 }
	var contract, overhead, fetch []float64
	for i := range traced.ops {
		o := &traced.ops[i]
		if o.rejected {
			rejected++
		}
		if o.failed() {
			continue
		}
		n++
		if st := o.stats; st != nil {
			if st.ShardReused {
				reused++
			}
			c := st.Counters
			k.hits += c.ProbeHits
			k.misses += c.ProbeMisses
			k.batches += c.ProbeBatches
			k.updates += c.Updates
			k.queries += c.Queries
			k.volume += c.Volume
			k.workspace = max(k.workspace, c.WorkspaceWords)
			dense := 0.0
			if st.Decision.Kind == fastcc.AccumDense {
				dense = 1
			}
			for j, x := range []float64{float64(st.Tasks), float64(st.Blocks), float64(st.TileL), float64(st.TileR), dense} {
				v[modelMetrics[j].name+"."+o.kase] = x
			}
		}
		if r := o.resp; r != nil {
			if r.ShardReused {
				reused++
			}
			contract = append(contract, float64(o.contract)/1e6)
			overhead = append(overhead, float64(o.contract-time.Duration(r.TotalNS))/1e6)
			fetch = append(fetch, float64(o.fetch)/1e6)
		}
	}
	per := func(x int64) float64 { return ratio(float64(x), float64(n)) }
	v["hashtable.probe_hit_ratio"] = ratio(float64(k.hits), float64(k.hits+k.misses))
	v["hashtable.probe_batches"] = per(k.batches)
	v["accum.updates"] = per(k.updates)
	v["accum.workspace_words"] = float64(k.workspace)
	v["core.queries"] = per(k.queries)
	v["core.volume"] = per(k.volume)
	v["core.shard_reused_ratio"] = ratio(float64(reused), float64(n))

	// A spill reload counts as a cache hit in the engine, and a miss is a
	// rebuild; so fetches that found no resident shard are misses + reloads.
	a, b := traced.before.cache, traced.after.cache
	hits, misses, reloads := b.Hits-a.Hits, b.Misses-a.Misses, b.SpillReads-a.SpillReads
	v["core.cache_hit_ratio"] = ratio(float64(hits-reloads), float64(hits+misses))
	v["core.cache_evictions"] = float64(b.Evictions - a.Evictions)
	v["core.cache_evicted_mb"] = float64(b.EvictedBytes-a.EvictedBytes) / (1 << 20)
	v["core.cache_rebuilds"] = float64(misses)
	v["spill.writes"] = float64(b.SpillWrites - a.SpillWrites)
	v["spill.reads"] = float64(reloads)
	v["spill.written_mb"] = float64(b.SpillBytes-a.SpillBytes) / (1 << 20)
	v["spill.reload_ratio"] = ratio(float64(reloads), float64(reloads+misses))
	v["spill.fallbacks"] = float64(b.SpillFallbacks - a.SpillFallbacks)

	v["server.contract_ms"] = median(contract)
	v["server.overhead_ms"] = median(overhead)
	v["server.fetch_ms"] = median(fetch)
	v["server.upload_ms"] = median(tr.durations("client.Upload"))
	v["scheduler.rejected"] = float64(rejected)

	v["runtime.gc_cycles"] = float64(plain.after.gcCycles - plain.before.gcCycles)
	v["runtime.gc_pause_ms"] = float64(plain.after.gcPauseNS-plain.before.gcPauseNS) / 1e6
	v["trace.overhead_ratio"] = ratio(median(latencies(traced.ops)), median(latencies(plain.ops)))

	for _, pl := range perLayer {
		m[pl.name] = metric{v[pl.name], pl.unit}
	}
}
