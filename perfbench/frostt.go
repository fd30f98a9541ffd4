package main

import (
	"fmt"
	"time"

	"fastcc"
	"fastcc/internal/gen"
)

// frosttScale shrinks the FROSTT tensors to the size the repository's
// experiments use.
const frosttScale = 0.01

// frosttCases are the three self-contractions frostt-cold cycles through,
// one per bottleneck of the one-shot pipeline: the output path (chicago-0),
// a contraction the model runs as one task (nips-2), and the build
// (vast-014).
var frosttCases = []struct {
	tensor string
	modes  []int
}{
	{"chicago", []int{0}},
	{"nips", []int{2}},
	{"vast", []int{0, 1, 4}},
}

type frosttCase struct {
	name  string
	t     *fastcc.Tensor
	modes []int
	ref   digest
}

// frosttCold is one caller running one-shot SelfContract in a closed loop,
// so every call pays every pipeline layer.
type frosttCold struct {
	g     gate
	scale float64
	cases []frosttCase
}

func prepareFrosttCold(cfg config) (bench, error) {
	b := &frosttCold{scale: frosttScale * cfg.scale}
	for _, c := range frosttCases {
		spec, err := gen.FrosttByName(c.tensor)
		if err != nil {
			return nil, err
		}
		t, err := spec.Scaled(b.scale).Generate(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", c.tensor, err)
		}
		name := gen.ContractionName(c.tensor, c.modes)
		ref, err := reference(t, t, fastcc.Spec{CtrLeft: c.modes, CtrRight: c.modes}, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		b.cases = append(b.cases, frosttCase{name: name, t: t, modes: c.modes, ref: ref})
	}
	return b, nil
}

func (b *frosttCold) gate() *gate { return &b.g }

func (b *frosttCold) scales() map[string]float64 { return map[string]float64{"frostt": b.scale} }

func (b *frosttCold) open(threads int, _ *tracer) (session, error) {
	return &frosttSession{b: b, threads: threads}, nil
}

type frosttSession struct {
	b       *frosttCold
	threads int
}

func (s *frosttSession) clients() int { return 1 }
func (s *frosttSession) cycle() int   { return len(s.b.cases) }
func (s *frosttSession) close() error { return nil }

func (s *frosttSession) single(*tracer) (session, error) {
	return &frosttSession{b: s.b, threads: 1}, nil
}

func (s *frosttSession) do(_, k int, tr *tracer) op {
	c := &s.b.cases[k%len(s.b.cases)]
	return engineCall(tr, &s.b.g, c.name, "fastcc.SelfContract", c.ref, s.threads, func(opts []fastcc.Option) (*fastcc.Tensor, *fastcc.Stats, error) {
		return fastcc.SelfContract(c.t, c.modes, opts...)
	})
}

// engineCall times one in-process engine call, traces it, and checks its
// output against ref outside the timed interval. Tracing turns on the
// engine's WithMetrics counters.
func engineCall(tr *tracer, g *gate, kase, name string, ref digest, threads int,
	call func([]fastcc.Option) (*fastcc.Tensor, *fastcc.Stats, error), extra ...fastcc.Option) op {
	opts := append([]fastcc.Option{fastcc.WithThreads(threads)}, extra...)
	var before fastcc.CacheStats
	if tr != nil {
		opts = append(opts, fastcc.WithMetrics())
		before = fastcc.ShardCacheStats()
	}
	start := time.Now()
	out, st, err := call(opts)
	end := time.Now()
	if tr != nil {
		tr.call(tr.req(), name, kase, start, end, st, before, fastcc.ShardCacheStats())
	}
	o := op{kase: kase, lat: end.Sub(start), err: err, stats: st}
	if err == nil {
		o.wrong = !g.ok(out, ref)
	}
	return o
}

// reference is the digest of a single-thread contraction, whose output is
// first spot-checked by direct recomputation of sampled elements.
func reference(l, r *fastcc.Tensor, spec fastcc.Spec, seed uint64) (digest, error) {
	out, _, err := fastcc.Contract(l, r, spec, fastcc.WithThreads(1))
	if err != nil {
		return digest{}, fmt.Errorf("reference contraction: %w", err)
	}
	if err := fastcc.VerifySample(l, r, spec, out, 8, seed, 1e-9); err != nil {
		return digest{}, fmt.Errorf("reference output fails spot check: %w", err)
	}
	return digestOf(out), nil
}
