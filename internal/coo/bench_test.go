package coo

import (
	"math/rand"
	"testing"
)

func benchTensor(n int) *Tensor {
	rng := rand.New(rand.NewSource(1))
	return randomTensor(rng, []uint64{1 << 12, 1 << 10, 1 << 8}, n)
}

func BenchmarkSort100k(b *testing.B) {
	orig := benchTensor(100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := orig.Clone()
		t.Sort()
	}
}

func BenchmarkDedup100k(b *testing.B) {
	orig := benchTensor(100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := orig.Clone()
		t.Dedup()
	}
}

func BenchmarkMatrixize100k(b *testing.B) {
	t := benchTensor(100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := t.Matrixize([]int{0, 1}, []int{2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRadixDecode100k decodes 100k tile-relative offsets of an
// order-3 side, the engine's per-coordinate output cost.
func BenchmarkRadixDecode100k(b *testing.B) {
	n := 100_000
	rng := rand.New(rand.NewSource(2))
	offs := make([]uint32, n)
	for i := range offs {
		offs[i] = uint32(rng.Intn(1 << 16))
	}
	dims := []uint64{1 << 10, 1000, 1 << 10}
	x, err := NewRadix(dims)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([][]uint64, len(dims))
	for m := range dst {
		dst[m] = make([]uint64, n)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.DecodeOffsets(dst, 0, 1<<19, offs)
	}
}

// BenchmarkTileDecode compares the two decode paths on a run of 100k
// offsets into one 512-wide tile of an order-3 side (chicago-0's output
// tile shape): TileDecoder's per-tile lookup table against the
// multiply-high arithmetic it falls back to on wide tiles and short runs.
func BenchmarkTileDecode(b *testing.B) {
	const n, side = 100_000, 512
	rng := rand.New(rand.NewSource(2))
	offs := make([]uint32, n)
	for i := range offs {
		offs[i] = uint32(rng.Intn(side))
	}
	dims := []uint64{24, 77, 19}
	x, err := NewRadix(dims)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([][]uint64, len(dims))
	for m := range dst {
		dst[m] = make([]uint64, n)
	}
	const base = 40 * side
	b.Run("table", func(b *testing.B) {
		d := x.NewTileDecoder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Decode(dst, 0, base, side, offs)
		}
	})
	b.Run("multiply-high", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x.DecodeOffsets(dst, 0, base, offs)
		}
	})
}
