package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"fastcc"
	"fastcc/internal/gen"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (e2e, layers []declared, workloadNames []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return b.EndToEnd, b.PerLayer, workloadNames
}

// runTiny runs one workload at a tenth of its input scale for one second
// and returns the exit code and the parsed last line of standard output.
func runTiny(t *testing.T, extra ...string) (int, result) {
	t.Helper()
	var out, errb bytes.Buffer
	args := append([]string{"--seed", "3", "--seconds", "1", "--scale", "0.1", "--out", t.TempDir()}, extra...)
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	return code, res
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []declared) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, d.Name, m.Unit, d.Unit)
		}
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	e2e, layers, names := readBenchmarkJSON(t)
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			code, res := runTiny(t, "--workload", w, "--trace", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: exit %d, result %+v", code, res)
			}
			checkMetrics(t, "untraced", res.Metrics, e2e)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("untraced: %s = %v, want > 0", name, m.Value)
				}
			}

			code, res = runTiny(t, "--workload", w, "--trace", "1")
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: exit %d, result %+v", code, res)
			}
			checkMetrics(t, "traced", res.Metrics, layers)
			v := func(name string) float64 { return res.Metrics[name].Value }
			if v("trace.overhead_ratio") <= 0 {
				t.Errorf("trace.overhead_ratio = %v, want > 0", v("trace.overhead_ratio"))
			}
			// Each workload exercises the layers it was chosen for.
			switch w {
			case "frostt-cold":
				for _, fc := range frosttCases {
					c := gen.ContractionName(fc.tensor, fc.modes)
					if v("core.build_ms."+c) <= 0 || v("model.tasks."+c) < 1 {
						t.Errorf("%s: build_ms %v, tasks %v", c, v("core.build_ms."+c), v("model.tasks."+c))
					}
				}
			case "qc-warm":
				if v("core.build_ms") != 0 || v("coo.linearize_ms") != 0 || v("core.shard_reused_ratio") != 1 {
					t.Errorf("prepared loop rebuilt: build_ms %v, linearize_ms %v, shard_reused_ratio %v",
						v("core.build_ms"), v("coo.linearize_ms"), v("core.shard_reused_ratio"))
				}
			case "serve-churn":
				for _, name := range []string{"core.cache_evictions", "spill.reads", "core.cache_rebuilds", "server.upload_ms"} {
					if v(name) <= 0 {
						t.Errorf("%s = %v, want > 0", name, v(name))
					}
				}
			}
		})
	}
}

func TestPerLayerListHasUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range perLayer {
		if seen[m.name] {
			t.Errorf("per-layer metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestWrongOutputFailsTheRun flips one bit of one timed output: the run
// must count it as failed, report it, and exit non-zero.
func TestWrongOutputFailsTheRun(t *testing.T) {
	for _, trace := range []int{0, 1} {
		code, res := runTiny(t, "--workload", "frostt-cold", "--trace", strconv.Itoa(trace), "--corrupt")
		if code == 0 || res.Correct || res.Failed != 1 {
			t.Errorf("trace %d: exit %d, correct %v, failed %d; want non-zero, false, 1", trace, code, res.Correct, res.Failed)
		}
		name, want := "failed_ratio", float64(res.Failed)/float64(res.Attempted)
		if trace == 0 {
			name, want = "ok_ratio", 1-want
		}
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("trace %d: %s = %v, want %v", trace, name, got, want)
		}
	}
}

func TestDigestIgnoresOrderAndZeros(t *testing.T) {
	a := &fastcc.Tensor{Dims: []uint64{4, 5}, Coords: [][]uint64{{0, 1, 3}, {2, 4, 0}}, Vals: []float64{1.5, -2, 0.25}}
	b := &fastcc.Tensor{Dims: []uint64{4, 5}, Coords: [][]uint64{{3, 2, 0, 1}, {0, 2, 2, 4}}, Vals: []float64{0.25, 0, 1.5, -2}}
	if digestOf(a) != digestOf(b) {
		t.Error("digest depends on element order or explicit zeros")
	}
	b.Vals[2] = 1.5000000000000002
	if digestOf(a) == digestOf(b) {
		t.Error("digest misses a one-ulp change")
	}
	b.Vals[2], b.Coords[1][2] = 1.5, 3
	if digestOf(a) == digestOf(b) {
		t.Error("digest misses a moved element")
	}
}
