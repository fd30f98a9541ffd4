// Command perfbench is the repository's benchmark. One invocation runs one
// named workload in a single process and prints, as the last line of its
// standard output, one JSON object with the workload's metrics:
//
//	bash perfbench/run.sh --workload frostt-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
// measured with tracing off; with --trace 1 they are the per-layer ones,
// from a run that records a span around every public call the benchmark
// makes. The benchmark gives the program only inputs it generates from
// --seed, checks every timed output against a reference digest, and exits
// non-zero if any output is wrong. See README.md for the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"fastcc"
	"fastcc/internal/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	out      string
	corrupt  bool
}

// workloads maps each workload name to the function that generates its
// inputs and reference digests.
var workloads = map[string]func(config) (bench, error){
	"frostt-cold": prepareFrosttCold,
	"qc-warm":     prepareQCWarm,
	"serve-churn": prepareServeChurn,
}

// bench is a workload whose inputs and reference digests are ready.
type bench interface {
	// open sets the program up for timed calls at the given worker count.
	open(threads int, tr *tracer) (session, error)
	gate() *gate
	scales() map[string]float64
}

// session is the program set up for a workload's timed calls.
type session interface {
	// clients is the number of closed-loop callers.
	clients() int
	// cycle is the number of calls a caller makes per pass over the
	// workload's inputs; timed phases end on a pass boundary, so every
	// input is measured equally often.
	cycle() int
	// do makes a caller's k-th call. Only the calls into the program are
	// inside the op's latency; its output is checked outside it.
	do(client, k int, tr *tracer) op
	// single hands the session over to one that runs the same calls at
	// one worker; only the returned session is used and closed afterwards.
	single(tr *tracer) (session, error)
	close() error
}

// op is the outcome of one timed call (or, on serve-churn, one request).
type op struct {
	kase     string
	lat      time.Duration
	err      error
	wrong    bool
	rejected bool
	stats    *fastcc.Stats            // in-process calls
	resp     *server.ContractResponse // server requests
	contract time.Duration            // server requests: client spans
	fetch    time.Duration
}

func (o *op) failed() bool { return o.err != nil || o.wrong }

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: frostt-cold, qc-warm or serve-churn")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds of timed calls")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	fs.Float64Var(&cfg.scale, "scale", 1, "factor on the workload's input scales")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spill files and the written trace")
	fs.BoolVar(&cfg.corrupt, "corrupt", false, "flip a bit of one timed output, to show the correctness gate fails the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	prepare, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case cfg.seconds <= 0 || cfg.scale <= 0 || cfg.scale > 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --scale in (0, 1]")
		return 2
	}
	cfg.trace = trace == 1

	t0 := time.Now()
	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "perfbench: %s: +%.1fs %s\n", cfg.workload, time.Since(t0).Seconds(), fmt.Sprintf(format, a...))
	}
	b, err := prepare(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: preparing %s: %v\n", cfg.workload, err)
		return 1
	}
	logf("inputs and references ready")
	res, err := measure(cfg, b, logf, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	head, _ := json.Marshal(map[string]any{"stamp": newStamp(cfg, b.scales()), "detail": res.detail})
	fmt.Fprintln(stdout, string(head))
	line, _ := json.Marshal(res.out)
	fmt.Fprintln(stdout, string(line))
	if !res.out.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: wrong output on %d calls\n", cfg.workload, res.wrong)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type outcome struct {
	out    result
	wrong  int
	detail map[string]any
}

// phase is one timed loop: the ops every caller completed and the process
// counters around it.
type phase struct {
	ops           []op
	clients       int
	before, after runtimeCounters
}

// setup opens a session and makes one warm-up pass through it, so lazy
// pool and cache set-up is paid here and a wrong output stops the run.
func setup(b bench, threads int, tr *tracer) (session, error) {
	s, err := b.open(threads, tr)
	if err != nil {
		return nil, err
	}
	if err := warmUp(s); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

func warmUp(s session) error {
	for c := 0; c < s.clients(); c++ {
		for k := 0; k < s.cycle(); k++ {
			o := s.do(c, k, nil)
			if o.err != nil {
				return fmt.Errorf("warm-up %s: %w", o.kase, o.err)
			}
			if o.wrong {
				return fmt.Errorf("warm-up %s: output differs from the reference", o.kase)
			}
		}
	}
	return nil
}

// timed runs a warm-up pass, a GC fence, then every caller in a closed loop
// until d has passed. armed, when set, runs just before the timed calls.
func timed(s session, d time.Duration, tr *tracer, armed func()) (phase, error) {
	if err := warmUp(s); err != nil {
		return phase{}, err
	}
	runtime.GC()
	if armed != nil {
		armed()
	}
	p := phase{clients: s.clients(), before: readRuntime()}
	per := make([][]op, p.clients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k%s.cycle() != 0 || time.Now().Before(deadline); k++ {
				per[c] = append(per[c], s.do(c, k, tr))
			}
		}(c)
	}
	wg.Wait()
	p.after = readRuntime()
	for _, ops := range per {
		p.ops = append(p.ops, ops...)
	}
	return p, nil
}

// measure sets the program up, runs the timed phases and computes the
// metrics. An untraced run splits its time evenly between the calls at
// nproc workers and the same loop at one worker; a traced run splits it
// evenly between an untraced loop (the base of trace.overhead_ratio), a
// traced loop at nproc workers and a traced loop at one worker.
func measure(cfg config, b bench, logf func(string, ...any), stderr io.Writer) (*outcome, error) {
	nproc := runtime.NumCPU()
	total := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var setups []float64
	var s session
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if s, err = setup(b, nproc, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	logf("set up %d times", setupReps)

	var corrupt func()
	if cfg.corrupt {
		corrupt = func() { b.gate().corrupt.Store(true) }
	}
	var phases []phase
	type plan struct {
		d  time.Duration
		tr *tracer
	}
	plans := []plan{{total / 2, nil}}
	if cfg.trace {
		plans = []plan{{total / 3, nil}, {total / 3, tr}}
	}
	for _, pl := range plans {
		p, err := timed(s, pl.d, pl.tr, corrupt)
		corrupt = nil
		if err != nil {
			s.close()
			return nil, err
		}
		phases = append(phases, p)
		logf("timed %d calls at %d workers", len(p.ops), nproc)
	}
	s1, err := s.single(tr)
	if err != nil {
		return nil, fmt.Errorf("set-up at one worker: %w", err)
	}
	t1d := total / 2
	if cfg.trace {
		t1d = total / 3
	}
	t1, err := timed(s1, t1d, tr, nil)
	if cerr := s1.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	phases = append(phases, t1)
	logf("timed %d calls at 1 worker", len(t1.ops))

	res := &outcome{out: result{Metrics: map[string]metric{}}, detail: map[string]any{}}
	for _, p := range phases {
		for i := range p.ops {
			o := &p.ops[i]
			res.out.Attempted++
			if o.failed() {
				res.out.Failed++
			}
			if o.wrong {
				res.wrong++
			}
		}
	}
	res.out.Correct = res.wrong == 0
	np := phases[0]
	if cfg.trace {
		np = phases[1]
	}
	lat := latencies(np.ops)
	tp, tv := tail(lat)
	res.detail["tail_percentile"] = tp
	var deciles []float64
	for q := 10.0; q < 100; q += 10 {
		deciles = append(deciles, percentile(lat, q))
	}
	res.detail["deciles_ms"] = deciles
	res.detail["samples"] = len(lat)
	res.detail["t1_samples"] = len(latencies(t1.ops))
	res.detail["setup_s"] = setups
	res.detail["clients"] = np.clients
	res.detail["threads"] = nproc

	if !cfg.trace {
		m := res.out.Metrics
		m["throughput_cps"] = metric{throughput(np), "1/s"}
		m["p50_ms"] = metric{median(lat), "ms"}
		m["tail_ms"] = metric{tv, "ms"}
		m["t1_p50_ms"] = metric{median(latencies(t1.ops)), "ms"}
		m["setup_s"] = metric{median(setups), "s"}
		m["alloc_mb_per_op"] = metric{float64(np.after.allocBytes-np.before.allocBytes) / float64(max(len(np.ops), 1)) / (1 << 20), "MiB"}
		m["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
		m["ok_ratio"] = metric{1 - float64(res.out.Failed)/float64(max(res.out.Attempted, 1)), "ratio"}
		return res, nil
	}
	layerMetrics(res.out.Metrics, phases[0], phases[1], t1, tr)
	res.out.Metrics["failed_ratio"] = metric{float64(res.out.Failed) / float64(max(res.out.Attempted, 1)), "ratio"}
	path := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	res.detail["trace_file"] = path
	tr.writeSelfTimes(stderr)
	return res, nil
}

// latencies are the ascending latencies in ms of the ops that succeeded.
func latencies(ops []op) []float64 {
	var xs []float64
	for i := range ops {
		if !ops[i].failed() {
			xs = append(xs, float64(ops[i].lat)/1e6)
		}
	}
	sort.Float64s(xs)
	return xs
}

// throughput is the closed loop's completion rate by Little's law: callers
// over mean latency. It leaves out the benchmark's own output checks, which
// run between calls.
func throughput(p phase) float64 {
	var sum time.Duration
	n := 0
	for i := range p.ops {
		if !p.ops[i].failed() {
			sum += p.ops[i].lat
			n++
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(p.clients) * float64(n) / sum.Seconds()
}
