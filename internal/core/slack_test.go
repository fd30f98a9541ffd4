package core

import (
	"math/rand"
	"testing"

	"fastcc/internal/coo"
	"fastcc/internal/model"
	"fastcc/internal/ref"
)

// floatMatrix is randomMatrix with values drawn from U(-1, 1), so float
// addition is inexact and any change in accumulation order shows in the
// value bits.
func floatMatrix(rng *rand.Rand, extDim, ctrDim uint64, nnz int) *coo.Matrix {
	m := randomMatrix(rng, extDim, ctrDim, nnz)
	for i := range m.Val {
		m.Val[i] = 2*rng.Float64() - 1
	}
	return m
}

// TestSlackSplitSelfContraction runs a self-contraction whose cache-sized
// tile covers the whole output: the model's parallel-slack step splits it
// into enough tiles for Desktop8's eight cores. The split keeps equal
// tiles, so the run builds one shard; the shard key does not depend on
// the thread count, so runs at T=2 and T=8 reuse it; and the outputs match
// the reference and are bit-identical, in element order, at T=1, 2 and 8.
func TestSlackSplitSelfContraction(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := floatMatrix(rng, 300, 40, 3000)
	op := NewOperand(m)
	defer op.Close()
	want := ref.MapToMatrixTensor(ref.ContractMatrix(m, m), m.ExtDim, m.ExtDim)

	var first *coo.Tensor
	for i, threads := range []int{1, 2, 8} {
		got, st, err := ContractOperands(op, op, Config{Threads: threads, Platform: model.Desktop8})
		if err != nil {
			t.Fatalf("T=%d: %v", threads, err)
		}
		d := st.Decision
		if d.SlackHalvings == 0 || st.TileL != st.TileR || st.NL*st.NR < 4*model.Desktop8.Cores {
			t.Fatalf("T=%d: slack did not split the self-contraction: halvings=%d tile=%dx%d grid=%dx%d",
				threads, d.SlackHalvings, st.TileL, st.TileR, st.NL, st.NR)
		}
		if _, n := op.Resident(); n != 1 {
			t.Fatalf("T=%d: operand holds %d shards, want 1", threads, n)
		}
		if i > 0 && (!st.ShardReusedL || !st.ShardReusedR) {
			t.Fatalf("T=%d: shard rebuilt; the tiles must not depend on the thread count", threads)
		}
		if !coo.ApproxEqual(got, want, 1e-12) {
			t.Fatalf("T=%d: result differs from the reference", threads)
		}
		if first == nil {
			first = got
			continue
		}
		assertSameOrder(t, "T=1 vs later thread count", first, got)
	}
}

// TestTileOverrideNotSplit checks that explicit tile sides are used as
// given even where the slack step would split the model's own choice.
func TestTileOverrideNotSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	m := randomMatrix(rng, 300, 40, 3000)
	st := runAndCompare(t, m, m, Config{Threads: 2, TileL: 512, TileR: 512, Platform: model.Desktop8})
	if st.TileL != 512 || st.TileR != 512 || st.NL != 1 || st.NR != 1 {
		t.Fatalf("override split: tile=%dx%d grid=%dx%d", st.TileL, st.TileR, st.NL, st.NR)
	}
	if st.Decision.SlackHalvings != 0 {
		t.Fatalf("overridden run reports %d slack halvings, want 0", st.Decision.SlackHalvings)
	}
}

// TestBuildTeams checks that a run never has more builders at a time than
// its thread count: two concurrent builds split the workers, and one
// worker builds the sides in turn.
func TestBuildTeams(t *testing.T) {
	for threads := 1; threads <= 64; threads++ {
		for _, cached := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			thL, thR, concurrent := buildTeams(threads, cached[0], cached[1])
			if thL < 1 || thR < 1 {
				t.Fatalf("threads=%d cached=%v: empty team %d/%d", threads, cached, thL, thR)
			}
			if concurrent && thL+thR > threads {
				t.Fatalf("threads=%d cached=%v: %d+%d concurrent builders", threads, cached, thL, thR)
			}
			if !concurrent && (thL > threads || thR > threads) {
				t.Fatalf("threads=%d cached=%v: team %d/%d exceeds the thread count", threads, cached, thL, thR)
			}
			if concurrent != (threads > 1 && !cached[0] && !cached[1]) {
				t.Fatalf("threads=%d cached=%v: concurrent=%v", threads, cached, concurrent)
			}
		}
	}
}
