package coo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPermute(t *testing.T) {
	a := mkTensor(t, []uint64{2, 3, 4}, [][]uint64{{1, 2, 3}}, []float64{7})
	p, err := a.Permute([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dims[0] != 4 || p.Dims[1] != 2 || p.Dims[2] != 3 {
		t.Fatalf("dims %v", p.Dims)
	}
	if got := p.At([]uint64{3, 1, 2}); got != 7 {
		t.Fatalf("permuted value %g", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteRejectsBad(t *testing.T) {
	a := mkTensor(t, []uint64{2, 2}, nil, nil)
	for _, perm := range [][]int{{0}, {0, 0}, {0, 2}, {-1, 0}} {
		if _, err := a.Permute(perm); err == nil {
			t.Fatalf("perm %v accepted", perm)
		}
	}
}

func TestPermuteInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Intn(4) + 1
		dims := make([]uint64, order)
		for m := range dims {
			dims[m] = uint64(rng.Intn(5) + 1)
		}
		a := randomTensor(rng, dims, rng.Intn(30))
		perm := rng.Perm(order)
		inv := make([]int, order)
		for k, m := range perm {
			inv[m] = k
		}
		p, err := a.Permute(perm)
		if err != nil {
			return false
		}
		back, err := p.Permute(inv)
		if err != nil {
			return false
		}
		return Equal(a, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAndNorm(t *testing.T) {
	a := mkTensor(t, []uint64{4}, [][]uint64{{0}, {2}}, []float64{3, 4})
	if a.Norm2() != 25 {
		t.Fatalf("Norm2=%g", a.Norm2())
	}
	a.Scale(2)
	if a.Vals[0] != 6 || a.Vals[1] != 8 {
		t.Fatalf("scaled %v", a.Vals)
	}
}

func TestAdd(t *testing.T) {
	a := mkTensor(t, []uint64{3, 3}, [][]uint64{{0, 0}, {1, 1}}, []float64{1, 2})
	b := mkTensor(t, []uint64{3, 3}, [][]uint64{{1, 1}, {2, 2}}, []float64{5, -3})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.NNZ() != 3 {
		t.Fatalf("nnz=%d", sum.NNZ())
	}
	if sum.At([]uint64{1, 1}) != 7 || sum.At([]uint64{2, 2}) != -3 {
		t.Fatal("wrong sums")
	}
	// Cancellation drops the entry.
	c := mkTensor(t, []uint64{3, 3}, [][]uint64{{0, 0}}, []float64{-1})
	s2, err := Add(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if s2.At([]uint64{0, 0}) != 0 || s2.NNZ() != 1 {
		t.Fatalf("cancellation kept: %v", s2.Vals)
	}
	if _, err := Add(a, mkTensor(t, []uint64{3}, nil, nil)); err == nil {
		t.Fatal("order mismatch accepted")
	}
	if _, err := Add(a, mkTensor(t, []uint64{3, 4}, nil, nil)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestAxpyLeavesOperands(t *testing.T) {
	x := mkTensor(t, []uint64{2}, [][]uint64{{0}}, []float64{3})
	y := mkTensor(t, []uint64{2}, [][]uint64{{0}, {1}}, []float64{1, 1})
	z, err := Axpy(2, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if z.At([]uint64{0}) != 7 || z.At([]uint64{1}) != 1 {
		t.Fatal("axpy wrong")
	}
	if x.Vals[0] != 3 {
		t.Fatal("Axpy mutated x")
	}
}

func TestSliceMode(t *testing.T) {
	a := mkTensor(t, []uint64{3, 4, 2},
		[][]uint64{{0, 1, 0}, {0, 3, 1}, {2, 1, 0}}, []float64{1, 2, 3})
	s, err := a.SliceMode(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Order() != 2 || s.NNZ() != 2 {
		t.Fatalf("slice %v", s)
	}
	if s.At([]uint64{0, 0}) != 1 || s.At([]uint64{2, 0}) != 3 {
		t.Fatal("slice values wrong")
	}
	if _, err := a.SliceMode(5, 0); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := a.SliceMode(1, 99); err == nil {
		t.Fatal("bad coordinate accepted")
	}
}

func TestModeHistogram(t *testing.T) {
	a := mkTensor(t, []uint64{3, 2},
		[][]uint64{{0, 0}, {0, 1}, {2, 0}}, []float64{1, 1, 1})
	h, err := a.ModeHistogram(0)
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 2 || h[1] != 0 || h[2] != 1 {
		t.Fatalf("histogram %v", h)
	}
	if _, err := a.ModeHistogram(9); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestToDenseFromDenseRoundTrip(t *testing.T) {
	a := mkTensor(t, []uint64{2, 3},
		[][]uint64{{0, 1}, {1, 2}, {0, 1}}, []float64{1, 2, 3}) // dup at (0,1)
	d, err := a.ToDense()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 6 || d[1] != 4 || d[5] != 2 {
		t.Fatalf("dense %v", d)
	}
	back, err := FromDense(d, []uint64{2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Clone()
	want.Dedup()
	if !Equal(want, back) {
		t.Fatal("dense round trip")
	}
}

func TestFromDenseTolerance(t *testing.T) {
	d := []float64{0.5, -0.01, 0, 2}
	tn, err := FromDense(d, []uint64{4}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if tn.NNZ() != 2 {
		t.Fatalf("nnz=%d", tn.NNZ())
	}
}

func TestDenseErrors(t *testing.T) {
	huge := New([]uint64{1 << 20, 1 << 20}, 0)
	if _, err := huge.ToDense(); err == nil {
		t.Fatal("huge dense accepted")
	}
	if _, err := FromDense([]float64{1, 2}, []uint64{3}, 0); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FromDense(nil, []uint64{1 << 40, 1 << 40}, 0); err == nil {
		t.Fatal("overflow dims accepted")
	}
}
