package mempool

import (
	"testing"
	"testing/quick"
)

func TestAppendAcrossChunks(t *testing.T) {
	p := New[int](4)
	for i := 0; i < 11; i++ {
		p.Append(i)
	}
	if p.Len() != 11 {
		t.Fatalf("Len=%d", p.Len())
	}
	if got := len(p.Chunks()); got != 3 {
		t.Fatalf("chunks=%d want 3", got)
	}
	i := 0
	p.ForEach(func(v int) {
		if v != i {
			t.Fatalf("element %d = %d", i, v)
		}
		i++
	})
	if i != 11 {
		t.Fatalf("visited %d", i)
	}
}

func TestDefaultChunkLen(t *testing.T) {
	p := New[byte](0)
	p.Append(1)
	if cap(p.Chunks()[0]) != DefaultChunkLen {
		t.Fatalf("cap=%d", cap(p.Chunks()[0]))
	}
}

func TestReset(t *testing.T) {
	p := New[int](2)
	for i := 0; i < 5; i++ {
		p.Append(i)
	}
	p.Reset()
	if p.Len() != 0 {
		t.Fatalf("Len after reset = %d", p.Len())
	}
	p.Append(42)
	if p.Len() != 1 {
		t.Fatal("append after reset")
	}
	sum := 0
	p.ForEach(func(v int) { sum += v })
	if sum != 42 {
		t.Fatalf("stale elements after reset, sum=%d", sum)
	}
}

func TestConcatNoCopy(t *testing.T) {
	a := New[int](2)
	b := New[int](2)
	for i := 0; i < 3; i++ {
		a.Append(i)
		b.Append(10 + i)
	}
	l := Concat(a, nil, b)
	if l.Len() != 6 {
		t.Fatalf("Len=%d", l.Len())
	}
	want := []int{0, 1, 2, 10, 11, 12}
	i := 0
	l.ForEach(func(v int) {
		if v != want[i] {
			t.Fatalf("element %d = %d want %d", i, v, want[i])
		}
		i++
	})
	// No copy: mutating the pool's chunk shows through the list.
	a.Chunks()[0][0] = 99
	found := false
	l.ForEach(func(v int) { found = found || v == 99 })
	if !found {
		t.Fatal("Concat copied data; expected shared chunks")
	}
}

func TestConcatSkipsEmpty(t *testing.T) {
	a := New[int](2)
	l := Concat(a)
	if l.Len() != 0 || len(l.Chunks()) != 0 {
		t.Fatalf("empty concat: %d/%d", l.Len(), len(l.Chunks()))
	}
}

func TestFreelist(t *testing.T) {
	f := NewFreelist[string, int](2)
	if _, ok := f.Get("a"); ok {
		t.Fatal("empty freelist returned a value")
	}
	f.Put("a", 1)
	f.Put("a", 2)
	f.Put("a", 3) // over perKey: dropped
	if v, ok := f.Get("a"); !ok || v != 2 {
		t.Fatalf("got %d/%v", v, ok)
	}
	if v, ok := f.Get("a"); !ok || v != 1 {
		t.Fatalf("got %d/%v", v, ok)
	}
	if _, ok := f.Get("a"); ok {
		t.Fatal("third value should have been dropped")
	}
	if _, ok := f.Get("b"); ok {
		t.Fatal("wrong key hit")
	}
}

func TestSlicePool(t *testing.T) {
	var s SlicePool[uint64]
	b := s.Get(100)
	if len(b) != 0 || cap(b) < 100 {
		t.Fatalf("len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, 7, 8, 9)
	s.Put(b)
	b2 := s.Get(10)
	if len(b2) != 0 {
		t.Fatalf("recycled slice not empty: len=%d", len(b2))
	}
	// A larger request than any parked slice must still be satisfied.
	b3 := s.Get(1 << 16)
	if cap(b3) < 1<<16 {
		t.Fatalf("cap=%d", cap(b3))
	}
}

func TestPoolOrderProperty(t *testing.T) {
	f := func(vals []int16) bool {
		p := New[int16](3)
		for _, v := range vals {
			p.Append(v)
		}
		if p.Len() != len(vals) {
			return false
		}
		i := 0
		ok := true
		p.ForEach(func(v int16) {
			ok = ok && v == vals[i]
			i++
		})
		return ok && i == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
