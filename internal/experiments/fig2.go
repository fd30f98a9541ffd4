package experiments

import (
	"fmt"
	"time"

	"fastcc"
	"fastcc/internal/coo"
	"fastcc/internal/model"
)

// RunFig2 reproduces paper Figure 2: FaSTCC's speedup over Sparta on every
// benchmark contraction, both with the model-chosen tile size and with the
// best tile size found by a sweep. suite selects "frostt" (Fig. 2a/2b),
// "qc" (Fig. 2c/2d) or "all".
func RunFig2(cfg Config, suite string) error {
	w := cfg.writer()
	fmt.Fprintf(w, "Figure 2 (%s): speedup over Sparta (platform=%s, threads=%d)\n\n",
		suite, cfg.Platform.Name, cfg.Threads)
	t := newTable("contraction", "sparta(s)", "fastcc-model(s)", "fastcc-best(s)",
		"best tile", "speedup-model", "speedup-best")

	for _, cs := range CatalogSuite(suite) {
		l, r, spec, err := cs.Load(cfg)
		if err != nil {
			return err
		}
		spartaOut, spartaD, err := runBaseline(cfg, baseSparta, l, r, spec, nil)
		if err != nil {
			return fmt.Errorf("%s sparta: %w", cs.ID, err)
		}
		modelOut, stats, modelD, err := runFastCC(cfg, l, r, spec)
		if err != nil {
			return fmt.Errorf("%s fastcc: %w", cs.ID, err)
		}
		if cfg.Verify {
			if err := verifyAgainst(cs.ID, modelOut, spartaOut); err != nil {
				return err
			}
		}
		bestD, bestTile, err := bestTileTime(cfg, l, r, spec, stats.Decision)
		if err != nil {
			return fmt.Errorf("%s sweep: %w", cs.ID, err)
		}
		if modelD < bestD {
			// The model's own configuration beat every swept tile.
			bestD, bestTile = modelD, stats.TileL
		}
		t.addf("%s|%s|%s|%s|%d|%.2fx|%.2fx", cs.ID,
			secs(spartaD), secs(modelD), secs(bestD), bestTile,
			spartaD.Seconds()/modelD.Seconds(), spartaD.Seconds()/bestD.Seconds())
	}
	cfg.print(t)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "speedup-model uses Algorithm 7's tile size; speedup-best the sweep's")
	fmt.Fprintln(w, "winner. Values > 1 mean FaSTCC is faster than Sparta.")
	return nil
}

// sweepTileSizes returns the tile sides to try around the model decision.
// Dense sweeps are capped so per-worker accumulators stay modest, and reach
// down past a model tile the parallel-slack step shrank below 64.
func sweepTileSizes(dec model.Decision) []uint64 {
	var out []uint64
	if dec.Kind == model.AccumDense {
		lo := uint64(64)
		if dec.TileL < lo {
			lo = max(dec.TileL/2, 16)
		}
		for t := lo; t <= 2048; t *= 2 {
			out = append(out, t)
		}
		return out
	}
	base := dec.TileL
	if base < 64 {
		base = 64
	}
	for t := base / 8; t <= base*4; t *= 2 {
		if t >= 8 {
			out = append(out, t)
		}
	}
	return out
}

// bestTileTime sweeps tile sizes with the model's accumulator kind and
// returns the fastest time and its tile.
func bestTileTime(cfg Config, l, r *coo.Tensor, spec coo.Spec, dec model.Decision) (time.Duration, uint64, error) {
	var bestD time.Duration
	var bestT uint64
	for _, tile := range sweepTileSizes(dec) {
		_, _, d, err := runFastCC(cfg, l, r, spec,
			fastcc.WithTileSize(tile, tile), fastcc.WithAccumulator(dec.Kind))
		if err != nil {
			return 0, 0, err
		}
		if bestT == 0 || d < bestD {
			bestD, bestT = d, tile
		}
	}
	return bestD, bestT, nil
}
