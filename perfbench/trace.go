package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fastcc"
)

// span is one traced interval: a public call the benchmark made into the
// program, or a phase the call reported in its Stats or response. Spans of
// one request share Req; Parent 0 marks a root.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Req      int64            `json:"req"`
	Name     string           `json:"name"`
	Case     string           `json:"case,omitempty"`
	StartNS  int64            `json:"start_ns"` // since the tracer was created
	EndNS    int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// req allocates a request ID.
func (tr *tracer) req() int64 {
	if tr == nil {
		return 0
	}
	return tr.reqs.Add(1)
}

// add records a span and returns its ID.
func (tr *tracer) add(req int64, parent int, name, kase string, start, end time.Time, counters map[string]int64) int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, Case: kase,
		StartNS: start.Sub(tr.t0).Nanoseconds(), EndNS: end.Sub(tr.t0).Nanoseconds(),
		Counters: counters,
	})
	return id
}

// children attaches durations a call reported as child spans laid end to
// end from start; the call's span minus them is its self time.
func (tr *tracer) children(req int64, parent int, start time.Time, names []string, ds []time.Duration) {
	for i, d := range ds {
		end := start.Add(d)
		tr.add(req, parent, names[i], "", start, end, nil)
		start = end
	}
}

var phaseNames = []string{"linearize", "build", "contract", "concat", "delinearize"}

// call records an in-process engine call with its Stats phases as children
// and its counters: the run's WithMetrics snapshot and the shard-cache
// deltas between the snapshots taken just outside the timed interval.
func (tr *tracer) call(req int64, name, kase string, start, end time.Time, st *fastcc.Stats, before, after fastcc.CacheStats) {
	if tr == nil {
		return
	}
	c := cacheDelta(before, after)
	if st != nil {
		k := st.Counters
		c["queries"], c["volume"], c["updates"] = k.Queries, k.Volume, k.Updates
		c["workspace_words"], c["probe_batches"] = k.WorkspaceWords, k.ProbeBatches
		c["probe_hits"], c["probe_misses"] = k.ProbeHits, k.ProbeMisses
	}
	id := tr.add(req, 0, name, kase, start, end, c)
	if st != nil {
		tr.children(req, id, start, phaseNames,
			[]time.Duration{st.Linearize, st.Build, st.Contract, st.Concat, st.Delinearize})
	}
}

func cacheDelta(a, b fastcc.CacheStats) map[string]int64 {
	return map[string]int64{
		"cache_hits":      b.Hits - a.Hits,
		"cache_misses":    b.Misses - a.Misses,
		"cache_evictions": b.Evictions - a.Evictions,
		"spill_writes":    b.SpillWrites - a.SpillWrites,
		"spill_reads":     b.SpillReads - a.SpillReads,
	}
}

// durations returns the durations in ms of every span with the given name.
func (tr *tracer) durations(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// selfTimes sums, per span name, the count, the total time and the self
// time: each span's duration minus its children's.
func (tr *tracer) selfTimes() map[string][3]int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	child := make([]int64, len(tr.spans)+1)
	for _, s := range tr.spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	out := map[string][3]int64{}
	for _, s := range tr.spans {
		d := s.EndNS - s.StartNS
		e := out[s.Name]
		e[0]++
		e[1] += d
		e[2] += max(d-child[s.ID], 0)
		out[s.Name] = e
	}
	return out
}

// writeSelfTimes prints the self-time table, one span name a line.
func (tr *tracer) writeSelfTimes(w io.Writer) {
	st := tr.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		e := st[n]
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f\n", n, e[0], float64(e[1])/1e6, float64(e[2])/1e6)
	}
}

// write stores every span as one JSON line in path.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
