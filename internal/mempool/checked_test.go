package mempool

import "testing"

// mustPanicWhenChecked runs fn expecting a poison panic under
// -tags fastcc_checked and silent success otherwise. It returns the
// recovered value ("" when no panic fired).
func mustPanicWhenChecked(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if Checked && r == nil {
			t.Fatalf("%s: fastcc_checked build did not panic on a deliberate use-after-recycle", what)
		}
		if !Checked && r != nil {
			t.Fatalf("%s: normal build panicked unexpectedly: %v", what, r)
		}
	}()
	fn()
}

// TestSlicePoolUseAfterRecycle injects the exact bug class the poisoning
// exists for: a caller keeps its slice after Put and writes through it. The
// checked build must turn the next Get into a deterministic panic; the
// normal build silently recycles (which is why checked mode exists).
func TestSlicePoolUseAfterRecycle(t *testing.T) {
	var s SlicePool[uint64]
	b := s.Get(16)
	b = append(b, 1, 2, 3)
	s.Put(b)
	b[0] = 42 // deliberate use-after-recycle: b aliases parked storage
	mustPanicWhenChecked(t, "SlicePool", func() {
		_ = s.Get(8)
	})
}

// TestSlicePoolCleanRecycleDoesNotPanic pins the other half of the checked
// contract: a correct Put/Get cycle must never trip the poison assert.
func TestSlicePoolCleanRecycleDoesNotPanic(t *testing.T) {
	var s SlicePool[float64]
	for i := 0; i < 3; i++ {
		b := s.Get(32)
		b = append(b, 1.5, 2.5)
		s.Put(b)
	}
	b := s.Get(16)
	if len(b) != 0 {
		t.Fatalf("recycled slice not empty: %d", len(b))
	}
}

// TestFreelistCrossKeyPutPanicsWhenChecked injects the ROADMAP's provenance
// gap: a shaped value vended for one key is parked under another. The
// checked build must reject it at the Put (the recycle point); the normal
// build silently parks — a wrong-shaped value a future Get would vend.
func TestFreelistCrossKeyPutPanicsWhenChecked(t *testing.T) {
	f := NewFreelist[string, *int](4)
	v := new(int)
	f.Note("shape-a", v) // construction-time binding, as the engine does
	mustPanicWhenChecked(t, "Freelist cross-key Put", func() {
		f.Put("shape-b", v)
	})
}

// TestFreelistFirstPutBindsKey: a value never Noted is bound by its first
// Put; a later Put under a different key is the same cross-key violation.
func TestFreelistFirstPutBindsKey(t *testing.T) {
	f := NewFreelist[int, *int](4)
	v := new(int)
	f.Put(1, v) // first Put binds v to key 1
	got, ok := f.Get(1)
	if !ok || got != v {
		t.Fatalf("Get(1) = (%p, %v), want the parked value back", got, ok)
	}
	mustPanicWhenChecked(t, "Freelist rebind via Put", func() {
		f.Put(2, v)
	})
}

// TestFreelistConflictingNotePanicsWhenChecked: re-registering a value under
// a different key at Note time is caught at the Note, before the value ever
// parks.
func TestFreelistConflictingNotePanicsWhenChecked(t *testing.T) {
	f := NewFreelist[int, *int](4)
	v := new(int)
	f.Note(1, v)
	mustPanicWhenChecked(t, "Freelist conflicting Note", func() {
		f.Note(2, v)
	})
}

// TestFreelistCleanCycleNeverPanics pins the happy path in both modes:
// Note + Put + Get under one key round-trips the value with no provenance
// complaint, repeatedly.
func TestFreelistCleanCycleNeverPanics(t *testing.T) {
	f := NewFreelist[string, *int](4)
	v := new(int)
	f.Note("k", v)
	for i := 0; i < 3; i++ {
		f.Put("k", v)
		got, ok := f.Get("k")
		if !ok || got != v {
			t.Fatalf("cycle %d: Get = (%p, %v), want the parked value", i, got, ok)
		}
	}
}

// TestFreelistNonComparableValuesSkipProvenance: values whose dynamic type
// cannot be a map key (slices) are exempt from tracking — cross-key Put
// must not panic in either build, because identity cannot be established.
func TestFreelistNonComparableValuesSkipProvenance(t *testing.T) {
	f := NewFreelist[int, []int](4)
	v := []int{1, 2, 3}
	f.Put(1, v)
	f.Put(2, v) // untrackable: no identity, no provenance, no panic
	if _, ok := f.Get(1); !ok {
		t.Fatal("Get(1) found nothing after Put(1)")
	}
	if _, ok := f.Get(2); !ok {
		t.Fatal("Get(2) found nothing after Put(2)")
	}
}

// TestSlicePoolDoublePutPanicsWhenChecked injects the aliasing bug the
// shadow epoch exists for: the same backing array parked twice with no
// intervening Get passes the poison assert (the second park re-writes the
// sentinel) but would vend one chunk to two future Gets. The parity check
// must reject the second park; the normal build silently double-parks.
func TestSlicePoolDoublePutPanicsWhenChecked(t *testing.T) {
	var s SlicePool[uint64]
	b := s.Get(8)
	b = append(b, 1)
	s.Put(b)
	mustPanicWhenChecked(t, "SlicePool double Put", func() {
		s.Put(b)
	})
}

// TestSlicePoolPointeredUseAfterRecycle is the SlicePool twin of the
// pointered chunk test: scratch slices of pointered types get the shadow
// zero-fill, not the sentinel.
func TestSlicePoolPointeredUseAfterRecycle(t *testing.T) {
	var s SlicePool[[]float64]
	b := s.Get(4)
	b = append(b, []float64{1.5})
	s.Put(b)
	b[:1][0] = []float64{9} // deliberate use-after-recycle
	mustPanicWhenChecked(t, "SlicePool pointered", func() {
		_ = s.Get(2)
	})
}

// TestSlicePoolEpochReusableAfterCleanCycle: park/vend/park on the same
// array must never trip the parity check — only back-to-back parks do.
func TestSlicePoolEpochReusableAfterCleanCycle(t *testing.T) {
	var s SlicePool[uint64]
	b := s.Get(8)
	for i := 0; i < 3; i++ {
		s.Put(b)
		b = s.Get(4) // LIFO returns the same backing array
	}
	s.Put(b)
}

// TestSlicePoolDropsZeroCapacity: parking nothing is counted, not recycled.
func TestSlicePoolDropsZeroCapacity(t *testing.T) {
	var s SlicePool[byte]
	s.Put(nil)
	s.Put([]byte{})
	if got := s.Dropped(); got != 2 {
		t.Fatalf("Dropped=%d want 2", got)
	}
}

// TestPoolResetPoisonsRetainedChunk: under fastcc_checked, a stale Chunks
// reference held across Reset must read the sentinel, not plausible stale
// values; appends after Reset still work because they overwrite the poison.
func TestPoolResetPoisonsRetainedChunk(t *testing.T) {
	p := New[uint32](4)
	for i := 0; i < 3; i++ {
		p.Append(uint32(i + 1))
	}
	stale := p.Chunks()[0]
	p.Reset()
	if Checked {
		if stale[:3][0] != 0xA5A5A5A5 {
			t.Fatalf("retained chunk not poisoned after Reset: %#x", stale[:3][0])
		}
	}
	p.Append(7)
	if p.Chunks()[0][0] != 7 {
		t.Fatalf("append after Reset = %d, want 7", p.Chunks()[0][0])
	}
}
