package coo

import (
	"math/rand"
	"testing"
)

// decodeAll splits every index into a tile base and a 32-bit offset the way
// the contraction engine does (base a multiple of tile) and decodes the
// offsets through Radix.
func decodeAll(t *testing.T, idxs, dims []uint64, tile uint64) [][]uint64 {
	t.Helper()
	x, err := NewRadix(dims)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([][]uint64, len(dims))
	for m := range dst {
		dst[m] = make([]uint64, len(idxs))
	}
	for i, idx := range idxs {
		base := idx / tile * tile
		x.DecodeOffsets(dst, i, base, []uint32{uint32(idx - base)})
	}
	return dst
}

// TestRadixMatchesFromPairs checks the division-free decoder against the
// reference div/mod de-linearization of FromPairs, with many offsets per
// call so runs cross the decoder's block boundary.
func TestRadixMatchesFromPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	n := 1 << 15
	ls := make([]uint64, n)
	rs := make([]uint64, n)
	vs := make([]float64, n)
	lDims := []uint64{50, 40}
	rDims := []uint64{30, 1, 20, 10}
	for i := range vs {
		ls[i] = rng.Uint64() % 2000
		rs[i] = rng.Uint64() % 6000
		vs[i] = float64(rng.Intn(9) + 1)
	}
	want, err := FromPairs(ls, rs, vs, lDims, rDims)
	if err != nil {
		t.Fatal(err)
	}
	got := New(append(append([]uint64(nil), lDims...), rDims...), 0)
	for m := range got.Coords {
		got.Coords[m] = make([]uint64, n)
	}
	got.Vals = append(got.Vals, vs...)
	xl, _ := NewRadix(lDims)
	xr, _ := NewRadix(rDims)
	// One run per side: base 0, every index an offset.
	offL := make([]uint32, n)
	offR := make([]uint32, n)
	for i := range ls {
		offL[i], offR[i] = uint32(ls[i]), uint32(rs[i])
	}
	xl.DecodeOffsets(got.Coords[:len(lDims)], 0, 0, offL)
	xr.DecodeOffsets(got.Coords[len(lDims):], 0, 0, offR)
	if !Equal(want, got) {
		t.Fatal("Radix de-linearization disagrees with FromPairs")
	}
}

// TestRadixDecodeEdgeExtents covers the extents the reciprocal trick treats
// specially: unit modes, extents of 2^32 and beyond (quotient always 0),
// a single extent above 2^63 (the digit add overflows uint64), and tile
// bases whose digits carry across several modes.
func TestRadixDecodeEdgeExtents(t *testing.T) {
	cases := []struct {
		name string
		dims []uint64
		tile uint64
	}{
		{"unit modes", []uint64{1, 7, 1, 5, 1}, 4},
		{"pow2 2^32", []uint64{3, 1 << 32}, 1 << 31},
		{"above 2^32", []uint64{2, 1<<33 + 7}, 1<<31 - 1},
		{"above 2^63", []uint64{1<<63 + 12345}, 1 << 31},
		{"carry chain", []uint64{9, 3, 3, 3, 3}, 5},
		{"single extent", []uint64{1000}, 64},
		{"no modes", nil, 1},
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range cases {
		size, err := LinearSize(c.dims)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		strides, _ := Strides(c.dims)
		idxs := []uint64{0, size - 1}
		for i := 0; i < 500; i++ {
			idxs = append(idxs, rng.Uint64()%size)
		}
		got := decodeAll(t, idxs, c.dims, c.tile)
		for i, idx := range idxs {
			for m, d := range c.dims {
				if want := (idx / strides[m]) % d; got[m][i] != want {
					t.Fatalf("%s: index %d mode %d = %d, want %d", c.name, idx, m, got[m][i], want)
				}
			}
		}
	}
	if _, err := NewRadix([]uint64{4, 0}); err == nil {
		t.Fatal("zero extent accepted")
	}
}

// TestTileDecoderMatchesRadix drives a TileDecoder through the cases its
// table path must get right — runs long enough to tabulate, short runs
// that fall back to arithmetic, a tile overhanging the extent's end, a
// switch of tile base, a return to a cached tile and a tile too wide to
// tabulate — and compares every coordinate with Radix.DecodeOffsets.
func TestTileDecoderMatchesRadix(t *testing.T) {
	dims := []uint64{7, 1, 45, 13}
	size := uint64(7 * 45 * 13)
	x, err := NewRadix(dims)
	if err != nil {
		t.Fatal(err)
	}
	d := x.NewTileDecoder()
	rng := rand.New(rand.NewSource(3))
	runs := []struct {
		base, side uint64
		n          int
	}{
		{0, 512, 2000},         // tabulated
		{512, 512, 100},        // shorter than the tile: arithmetic
		{512, 512, 700},        // tabulated, new base
		{0, 512, 900},          // back to the first tile
		{3584, 512, 1000},      // overhangs the extent (4095 positions)
		{0, 8192, 9000},        // wider than any table
		{size - 1, 1 << 31, 5}, // a single-position remainder tile
	}
	for _, r := range runs {
		width := min(r.side, size-r.base)
		offs := make([]uint32, r.n)
		for k := range offs {
			offs[k] = uint32(rng.Uint64() % width)
		}
		got := make([][]uint64, len(dims))
		want := make([][]uint64, len(dims))
		for m := range dims {
			got[m] = make([]uint64, r.n+3)
			want[m] = make([]uint64, r.n+3)
		}
		d.Decode(got, 3, r.base, r.side, offs)
		x.DecodeOffsets(want, 3, r.base, offs)
		for m := range dims {
			for k := range want[m] {
				if got[m][k] != want[m][k] {
					t.Fatalf("base %d side %d run %d: mode %d element %d = %d, want %d",
						r.base, r.side, r.n, m, k, got[m][k], want[m][k])
				}
			}
		}
	}
}
