package experiments

import (
	"fmt"
	"time"

	"fastcc"
	"fastcc/internal/baselines"
	"fastcc/internal/coo"
	"fastcc/internal/metrics"
)

// runFastCC times a full FaSTCC contraction (linearize → contract →
// delinearize) at the config's threads and platform plus any extra options,
// and returns the output of the last repeat.
func runFastCC(cfg Config, l, r *coo.Tensor, spec coo.Spec, extra ...fastcc.Option) (*coo.Tensor, *fastcc.Stats, time.Duration, error) {
	opts := append([]fastcc.Option{fastcc.WithThreads(cfg.Threads), fastcc.WithPlatform(cfg.Platform)}, extra...)
	var out *coo.Tensor
	var stats *fastcc.Stats
	d, err := timeIt(cfg, func() error {
		var err error
		out, stats, err = fastcc.Contract(l, r, spec, opts...)
		return err
	})
	return out, stats, d, err
}

// baselineKind names a baseline engine.
type baselineKind string

const (
	baseSparta  baselineKind = "sparta-cm"
	baseCMDense baselineKind = "cm-dense-ws"
	baseTaco    baselineKind = "taco-ci"
	baseHashCI  baselineKind = "hash-ci"
	baseUntiled baselineKind = "untiled-co"
)

// runBaseline times a baseline through the same full pipeline FaSTCC is
// measured on: mode-group linearization, contraction, de-linearization.
func runBaseline(cfg Config, kind baselineKind, l, r *coo.Tensor, spec coo.Spec, ctr *metrics.Counters) (*coo.Tensor, time.Duration, error) {
	var out *coo.Tensor
	d, err := timeIt(cfg, func() error {
		extL := coo.ExternalModes(l.Order(), spec.CtrLeft)
		extR := coo.ExternalModes(r.Order(), spec.CtrRight)
		lm, err := l.Matrixize(extL, spec.CtrLeft)
		if err != nil {
			return err
		}
		rm, err := r.Matrixize(extR, spec.CtrRight)
		if err != nil {
			return err
		}
		var res *baselines.Result
		switch kind {
		case baseSparta:
			res, err = baselines.SpartaCM(lm, rm, cfg.Threads, ctr)
		case baseCMDense:
			res, err = baselines.SpartaCMDenseWS(lm, rm, cfg.Threads, ctr)
		case baseTaco:
			res, err = baselines.TacoCI(lm, rm, ctr)
		case baseHashCI:
			res, err = baselines.HashCI(lm, rm, ctr)
		case baseUntiled:
			res, err = baselines.UntiledCO(lm, rm, ctr)
		default:
			err = fmt.Errorf("experiments: unknown baseline %q", kind)
		}
		if err != nil {
			return err
		}
		lDims := make([]uint64, len(extL))
		for i, m := range extL {
			lDims[i] = l.Dims[m]
		}
		rDims := make([]uint64, len(extR))
		for i, m := range extR {
			rDims[i] = r.Dims[m]
		}
		out, err = coo.FromPairs(res.L, res.R, res.V, lDims, rDims)
		return err
	})
	return out, d, err
}

// verifyAgainst compares two engine outputs with a relative tolerance
// suited to differing accumulation orders.
func verifyAgainst(id string, a, b *coo.Tensor) error {
	if !coo.ApproxEqual(a, b, 1e-9) {
		return fmt.Errorf("experiments: %s: engines disagree (%d vs %d nnz)", id, a.NNZ(), b.NNZ())
	}
	return nil
}

// denseFeasible estimates whether a forced-dense run is tractable: the
// paper reports DNF for NIPS-2 with a dense accumulator, where tile-pair
// tasks far outnumber useful work. We refuse when the task grid exceeds
// the budget.
func denseFeasible(stats fastcc.Stats) bool {
	return int64(stats.NL)*int64(stats.NR) <= 32<<20
}

// denseGrid predicts the dense tile-grid size without running.
func denseGrid(l, r *coo.Tensor, spec coo.Spec, denseT uint64) (int64, error) {
	extL := coo.ExternalModes(l.Order(), spec.CtrLeft)
	extR := coo.ExternalModes(r.Order(), spec.CtrRight)
	gather := func(dims []uint64, modes []int) []uint64 {
		out := make([]uint64, len(modes))
		for k, m := range modes {
			out[k] = dims[m]
		}
		return out
	}
	lDim, err := coo.LinearSize(gather(l.Dims, extL))
	if err != nil {
		return 0, fmt.Errorf("experiments: left output extent: %w", err)
	}
	rDim, err := coo.LinearSize(gather(r.Dims, extR))
	if err != nil {
		return 0, fmt.Errorf("experiments: right output extent: %w", err)
	}
	if denseT == 0 {
		return 0, fmt.Errorf("experiments: zero dense tile")
	}
	nl := int64((lDim + denseT - 1) / denseT)
	nr := int64((rDim + denseT - 1) / denseT)
	return nl * nr, nil
}
