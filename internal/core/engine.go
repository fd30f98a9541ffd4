// Package core implements the FaSTCC contraction engine (paper Section 4):
// a 2D-tiled contraction-index-outer scheme. The output index space L×R is
// partitioned into NL×NR tiles; the inputs are sharded into per-tile
// open-addressing hash tables keyed by the contraction index; tile–tile
// contractions run as dynamically scheduled parallel tasks, each
// accumulating into a worker-local dense or sparse tile and draining the
// tile's nonzeros onto the worker's flat segment. Once every task is done,
// one parallel pass sizes the result from the tasks' drained counts and
// writes its values and decoded coordinates (output.go).
//
// The engine is split into three explicit stages so the Build phase can be
// amortized across repeated contractions (the prepared-operand API):
//
//   - plan: run the probabilistic model and resolve tile sizes (Algorithm 7);
//   - build: fetch or construct each operand's tile shard (Algorithm 5),
//     memoized per Operand under the ShardKey compatibility contract;
//   - execute: run the tile-task contraction, accumulate, drain (Algorithm
//     6), and write the output tensor.
package core

import (
	"context"
	"fmt"
	"time"

	"fastcc/internal/coo"
	"fastcc/internal/metrics"
	"fastcc/internal/model"
	"fastcc/internal/scheduler"
)

// Config controls one contraction run. The zero value asks for model-chosen
// tiles and accumulator on the Auto platform with GOMAXPROCS workers.
type Config struct {
	// Threads is the worker count; <= 0 means GOMAXPROCS.
	Threads int
	// TileL/TileR override the model's tile sizes when nonzero and are used
	// as given, never split by the model's parallel-slack step. TileR must
	// be a power of two when a dense accumulator is used.
	TileL, TileR uint64
	// Accum forces the accumulator kind; AccumAuto defers to the model.
	Accum model.AccumKind
	// Platform supplies cache and core parameters for the model; the zero
	// value selects model.Auto().
	Platform model.Platform
	// Counters, when non-nil, collects data-access statistics.
	Counters *metrics.Counters
	// Rep selects the input-tile representation: the paper's hash tables
	// (default) or the sorted-array ablation.
	Rep InputRep
	// CacheBudget bounds the process-wide shard cache in bytes: > 0 is an
	// explicit budget, < 0 disables eviction, 0 derives the default from the
	// platform LLC (L3Bytes × DefaultBudgetLLCMultiple). Every run applies —
	// and enforces — its own value at its start, so a run that leaves it 0
	// resets the budget to the LLC-derived default, whatever an earlier run
	// set.
	CacheBudget int64
	// Tenant, when non-empty, charges every shard this run builds or reuses
	// to the named tenant's cache account (tenant.go): the shard bytes count
	// against the tenant's quota, quota overruns are settled by evicting the
	// tenant's own cold shards when the run's pins drop, and the global
	// eviction policy prefers over-quota tenants' shards. Empty leaves the
	// run untenanted (shards unclaimed, global budget only).
	Tenant string
	// Context, when non-nil, cancels the run cooperatively: it is checked
	// between stages and at tile-task boundaries, and the run returns
	// Context.Err() wrapped.
	Context context.Context
}

func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// Stats reports what one contraction run did.
type Stats struct {
	Decision     model.Decision
	TileL, TileR uint64
	NL, NR       int
	Threads      int
	// Tasks is the number of tile-tile contractions executed (pairs of
	// nonempty input tiles).
	Tasks int
	// BlockL, BlockR are the LLC super-block sides (in non-empty tiles) the
	// contract schedule used; Blocks is the resulting block-task count. A
	// worker claims whole blocks and walks them L-outer/R-inner, so each
	// R panel is fetched from DRAM once and reused BlockL times.
	BlockL, BlockR, Blocks int
	// OutputNNZ is the number of output nonzeros produced.
	OutputNNZ int
	// ShardReusedL/ShardReusedR report that the operand's tile shard was
	// served from an Operand's cache instead of being built; BuildTime is
	// zero when both are true.
	ShardReusedL, ShardReusedR bool
	// Phase timings (the paper's four steps; drain time is inside
	// Contract). ConcatTime is the prefix sum over the tasks' drained
	// counts that sizes and allocates the result; DelinearizeTime is the
	// parallel pass that writes its values and coordinates.
	BuildTime       time.Duration
	ContractTime    time.Duration
	ConcatTime      time.Duration
	DelinearizeTime time.Duration
}

// Contract runs the tiled-CO contraction O[l,r] = Σ_c L[l,c]·R[c,r] on
// matrixized operands and returns the output tensor, its modes the left
// operand's ExtDims followed by the right operand's. The operands are
// sharded transiently — the shards are dropped before returning, so
// one-shot contractions leave nothing charged to the shard cache; callers
// that contract the same operand repeatedly should wrap it once with
// NewOperand and use ContractOperands.
func Contract(l, r *coo.Matrix, cfg Config) (*coo.Tensor, *Stats, error) {
	lo := NewOperand(l)
	ro := lo
	if r != l {
		ro = NewOperand(r)
	}
	defer lo.Close()
	if ro != lo {
		defer ro.Close()
	}
	return ContractOperands(lo, ro, cfg)
}

// ContractOperands is Contract over shard-caching operands: each side's
// Build phase is skipped when the operand already holds a shard compatible
// with this run's plan (same tile side and representation). Passing the
// same *Operand on both sides of a self-contraction shards it exactly once.
func ContractOperands(l, r *Operand, cfg Config) (*coo.Tensor, *Stats, error) {
	if cfg.Platform == (model.Platform{}) {
		cfg.Platform = model.Auto()
	}
	// (Re)apply this run's shard-cache budget before any build charges the
	// cache.
	shardLRU.setBudget(resolveBudget(cfg.CacheBudget, cfg.Platform))
	threads := scheduler.Workers(cfg.Threads)
	st := &Stats{Threads: threads}

	dec, err := plan(l.Mat, r.Mat, cfg)
	if err != nil {
		return nil, nil, err
	}
	outL, err := outputRadix(l.Mat)
	if err != nil {
		return nil, nil, err
	}
	outR, err := outputRadix(r.Mat)
	if err != nil {
		return nil, nil, err
	}
	st.Decision = dec
	tl, tr := dec.TileL, dec.TileR
	st.TileL, st.TileR = tl, tr
	st.NL = int((l.Mat.ExtDim + tl - 1) / tl)
	st.NR = int((r.Mat.ExtDim + tr - 1) / tr)

	if err := cfg.ctx().Err(); err != nil {
		return nil, nil, canceled(err)
	}

	// Build stage: fetch or construct the two shards. BuildTime stays zero
	// on a full cache hit — the amortization the prepared-operand API
	// exists to deliver. Both shards come back pinned; the run-level pins
	// are released when the run ends (a self-contraction holds one pin on
	// its single shard), keeping eviction away from the tables until every
	// worker has also released its own guard pins.
	ls, rs, builtL, builtR := buildShards(l, r, ShardKey{Tile: tl, Rep: cfg.Rep}, ShardKey{Tile: tr, Rep: cfg.Rep}, threads, st) //fastcc:allow pinbracket -- on the self-contraction path rs aliases ls and carries a single pin, released by ls's deferred Unpin; the rs != ls guard below is the release for the two-shard path
	st.ShardReusedL, st.ShardReusedR = !builtL, !builtR
	if cfg.Tenant != "" {
		// Charge both shards to the run's tenant while the run pins protect
		// them, and settle the tenant's quota as the run's LAST deferred step
		// (registered before the Unpins, so it runs after them): once the
		// pins drop, the enforcement pass can see this run's own shards.
		claimShard(ls, cfg.Tenant, builtL)
		if rs != ls {
			claimShard(rs, cfg.Tenant, builtR)
		}
		defer enforceTenant(cfg.Tenant)
	}
	defer ls.Unpin()
	if rs != ls {
		defer rs.Unpin()
	}

	if err := cfg.ctx().Err(); err != nil {
		return nil, nil, canceled(err)
	}

	return execute(ls, rs, dec, threads, cfg, st, outL, outR)
}

// canceled wraps a context error so callers can errors.Is against
// context.Canceled / DeadlineExceeded while seeing the engine frame.
func canceled(err error) error {
	return fmt.Errorf("core: contraction canceled: %w", err)
}

// plan runs the model decision (Algorithm 7), applies overrides, and
// validates the resulting tile geometry.
func plan(l, r *coo.Matrix, cfg Config) (model.Decision, error) {
	if l.ExtDim == 0 || r.ExtDim == 0 || l.CtrDim == 0 {
		return model.Decision{}, fmt.Errorf("core: zero-extent operand (L=%d, R=%d, C=%d)", l.ExtDim, r.ExtDim, l.CtrDim)
	}
	if l.CtrDim != r.CtrDim {
		return model.Decision{}, fmt.Errorf("core: contraction extents differ (%d vs %d)", l.CtrDim, r.CtrDim)
	}
	in := model.Inputs{
		NNZL: int64(l.NNZ()), NNZR: int64(r.NNZ()),
		LDim: l.ExtDim, RDim: r.ExtDim, CDim: l.CtrDim,
	}
	dec, err := model.Decide(in, cfg.Platform)
	if err != nil {
		return model.Decision{}, err
	}
	dec = dec.ForceKind(cfg.Accum, in, cfg.Platform)
	// Overrides are used as given. The slack count describes the model's
	// grid, which an overridden run does not use.
	if cfg.TileL != 0 || cfg.TileR != 0 {
		dec.SlackHalvings = 0
	}
	if cfg.TileL != 0 {
		dec.TileL = cfg.TileL
	}
	if cfg.TileR != 0 {
		dec.TileR = cfg.TileR
	}
	tl, tr := dec.TileL, dec.TileR
	if tl == 0 || tr == 0 {
		return model.Decision{}, fmt.Errorf("core: zero tile size %dx%d", tl, tr)
	}
	// Bound the sides first so the tl*tr product below cannot wrap uint64.
	if tl > 1<<31 || tr > 1<<31 {
		return model.Decision{}, fmt.Errorf("core: tile side exceeds 2^31 (%dx%d)", tl, tr)
	}
	if dec.Kind == model.AccumDense {
		if tr&(tr-1) != 0 {
			return model.Decision{}, fmt.Errorf("core: dense accumulator needs power-of-two TileR, got %d", tr)
		}
		if tl*tr > 1<<31 {
			return model.Decision{}, fmt.Errorf("core: dense tile %dx%d exceeds addressable positions", tl, tr)
		}
	}
	return dec, nil
}

// buildShards fetches or builds both operands' shards. When both need
// building they share the worker budget (the paper's two build teams,
// Section 4.2; see buildTeams); when one side is already cached, the other
// gets every worker. A self-contraction sharing one Operand with one key
// builds once.
func buildShards(l, r *Operand, keyL, keyR ShardKey, threads int, st *Stats) (ls, rs *Shard, builtL, builtR bool) {
	t0 := time.Now()
	if l == r && keyL == keyR {
		ls, builtL = l.Shard(keyL, threads)
		rs = ls
	} else if thL, thR, concurrent := buildTeams(threads, l.Cached(keyL), r.Cached(keyR)); concurrent {
		done := make(chan struct{})
		go func() {
			rs, builtR = r.Shard(keyR, thR)
			close(done)
		}()
		ls, builtL = l.Shard(keyL, thL)
		<-done
	} else {
		ls, builtL = l.Shard(keyL, thL)
		rs, builtR = r.Shard(keyR, thR)
	}
	if builtL || builtR {
		st.BuildTime = time.Since(t0)
	}
	return ls, rs, builtL, builtR
}

// buildTeams sizes the two operands' build teams and says whether the two
// Shard calls run at once. They do only when both sides build and there
// are two or more workers, which are then split between the sides.
// Otherwise the calls run one after the other on the caller's goroutine,
// each with every worker, so a run never has more builders at a time than
// its thread count.
func buildTeams(threads int, cachedL, cachedR bool) (thL, thR int, concurrent bool) {
	if threads <= 1 || cachedL || cachedR {
		return threads, threads, false
	}
	thL = (threads + 1) / 2
	return thL, threads - thL, true
}

// execute runs the tile-task contraction over two built shards — steps 2-4
// of the paper's pipeline (contract, accumulate, drain) — and writes the
// output tensor, decoding through outL/outR.
func execute(ls, rs *Shard, dec model.Decision, threads int, cfg Config, st *Stats, outL, outR *coo.Radix) (*coo.Tensor, *Stats, error) {
	tl, tr := dec.TileL, dec.TileR
	nonEmptyL := ls.NonEmpty()
	nonEmptyR := rs.NonEmpty()
	nL, nR := len(nonEmptyL), len(nonEmptyR)
	st.Tasks = nL * nR

	t0 := time.Now()
	wkey := accKey{kind: dec.Kind, tl: tl, tr: tr}
	workers := make([]*worker, threads)
	// Every worker taken below goes back to the freelist when the run ends,
	// after the output pass has read its segment (or on cancellation); a
	// panic out of the task loop leaves finished false and drops them.
	finished := false
	defer func() { parkWorkers(wkey, workers, finished) }()
	sparseHint := tileNNZHint(dec, tl, tr)
	// spans[t] locates task t's drained nonzeros; t = ii*nR + jj numbers
	// the non-empty task grid row-major, the order the output is laid out in.
	spans := make([]taskSpan, st.Tasks)

	// LLC-blocked schedule: the nL×nR task grid is cut into BL×BR
	// super-blocks sized so one block's input panels fit in a worker share
	// of the last-level cache (model.BlockShape). Workers claim whole blocks
	// — batched on the atomic ticket once blocks are plentiful — and walk
	// each block L-outer/R-inner, so a BR-tile R panel is streamed from DRAM
	// once and reused BL times from cache. The unblocked schedule this
	// replaces walked the grid i-major, re-streaming the entire R shard
	// through the LLC for every L tile.
	bl, br := model.BlockShape(cfg.Platform, ls.TileBytes(), rs.TileBytes(), nL, nR, threads)
	nbR := 0
	blocksTotal := 0
	if nL > 0 && nR > 0 {
		nbR = (nR + br - 1) / br
		blocksTotal = (nL + bl - 1) / bl * nbR
	}
	st.BlockL, st.BlockR, st.Blocks = bl, br, blocksTotal
	// The co-iteration loop is chosen once per run from the representation;
	// the platform's probe depth (the hash loop's batch width) is hoisted.
	sorted := ls.Key.Rep == RepSorted
	probeBatch := cfg.Platform.ProbeBatch()
	ctx := cfg.ctx()
	// Per-worker shard pins: each pool worker pins both shards before its
	// first claim and releases on exit (deferred inside the scheduler, so
	// cancellation and panics cannot leak a pin). The run-level pins in
	// ContractOperands already keep the shards alive; the guard makes the
	// reader set explicit — PinnedBytes reflects active workers, and the
	// refcount, not the caller's discipline, is what stands between a
	// concurrent Drop and the tables the tile tasks are reading.
	guard := scheduler.Guard{
		Acquire: func(int) { ls.mustPin(); rs.mustPin() },
		Release: func(int) { rs.Unpin(); ls.Unpin() },
	}
	err := scheduler.PoolCtxBatchGuarded(ctx, threads, blocksTotal, scheduler.ClaimBatch(blocksTotal, threads), guard, func(w, b int) {
		wk := workers[w]
		if wk == nil {
			wk = takeWorker(wkey, sparseHint)
			workers[w] = wk
		}
		bi, bj := b/nbR, b%nbR
		iEnd, jEnd := (bi+1)*bl, (bj+1)*br
		if iEnd > nL {
			iEnd = nL
		}
		if jEnd > nR {
			jEnd = nR
		}
		for ii := bi * bl; ii < iEnd; ii++ {
			i := nonEmptyL[ii]
			for jj := bj * br; jj < jEnd; jj++ {
				// Cancellation is observed at tile-task boundaries even
				// inside a block, matching the batched claim's latency of
				// one task, not one block.
				if ctx.Err() != nil {
					return
				}
				j := nonEmptyR[jj]
				start := wk.seg.Len()
				if sorted {
					contractSorted(ls.sortedAt(i), rs.sortedAt(j), wk, cfg.Counters)
				} else {
					contractHash(ls.sealedAt(i), rs.sealedAt(j), wk, cfg.Counters, probeBatch)
				}
				spans[ii*nR+jj] = taskSpan{seg: start, n: wk.seg.Len() - start, w: int32(w)}
			}
		}
	})
	finished = true
	if err != nil {
		// Partial output is discarded with the segments' contents.
		return nil, nil, canceled(err)
	}
	st.ContractTime = time.Since(t0)

	out := writeOutput(outputPlan{
		spans: spans, workers: workers,
		nonEmptyL: nonEmptyL, nonEmptyR: nonEmptyR,
		tl: tl, tr: tr, outL: outL, outR: outR,
	}, threads, st)
	st.OutputNNZ = out.NNZ()
	cfg.Counters.AddOutput(int64(out.NNZ()))
	if dec.Kind == model.AccumDense {
		cfg.Counters.MaxWorkspace(int64(tl) * int64(tr) * int64(threads))
	}
	return out, st, nil
}
