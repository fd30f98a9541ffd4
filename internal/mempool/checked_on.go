//go:build fastcc_checked

// fastcc_checked mode: every recycle point poisons the parked storage with a
// sentinel byte and every re-vend asserts the sentinel survived, so a write
// through a stale reference — the bug class the poolescape analyzer models
// statically — becomes a deterministic panic at the next Get instead of
// silent cross-run corruption. Parking uses a locked LIFO instead of
// sync.Pool so the panic reproduces: sync.Pool may drop or migrate items
// between Put and Get, which would let a corrupted slice escape detection.
//
// Poisoning scribbles over the slice's full capacity, so it is only applied
// to pointer-free element types (checked once per pool via reflection).
// Element types containing pointers — whose bytes the GC owns, so the
// sentinel scribble must skip them — are covered by the shadow layer
// instead: parked slices are cleared to zero values (always GC-safe) and
// re-vends assert the zeros survived, so the same stale-write bug class
// panics deterministically for pointered slices too. Independent of
// element type, every pool keeps a shadow epoch counter per backing
// array (parity = residency), catching a chunk parked twice with no
// intervening vend — the double-Put that would alias one chunk to two
// future Gets, which the byte sentinel alone cannot see.
package mempool

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// Checked reports whether the fastcc_checked lifetime assertions are
// compiled in.
const Checked = true

// poisonByte is the sentinel pattern written over parked storage. 0xA5 is
// asymmetric and non-zero, so neither fresh allocations nor common stores
// (0, -1) mimic it.
const poisonByte = 0xA5

type checkedSlice[T any] struct {
	mu     sync.Mutex
	parked [][]T
	epochs epochSet
}

// checkedFreelist tracks which freelist key each parked value belongs to,
// so a wrong-shaped value re-parked under a different key is rejected at
// Put instead of vended at a future Get (the ROADMAP's Freelist.Put
// provenance gap). Values are keyed by their own identity; non-comparable
// value types are skipped (they cannot be map keys).
type checkedFreelist[K comparable, V any] struct {
	mu   sync.Mutex
	prov map[any]K
}

// freelistProvKey returns v as a map key when its dynamic type is
// comparable, which is what identity-based provenance needs.
func freelistProvKey(v any) (any, bool) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() || !rv.Comparable() {
		return nil, false
	}
	return v, true
}

func (f *Freelist[K, V]) note(k K, v V) {
	id, ok := freelistProvKey(v)
	if !ok {
		return
	}
	f.ck.mu.Lock()
	defer f.ck.mu.Unlock()
	if f.ck.prov == nil {
		f.ck.prov = make(map[any]K)
	}
	if bound, seen := f.ck.prov[id]; seen && bound != k {
		panic(fmt.Sprintf(
			"mempool.Freelist.Note: value already bound to key %v re-registered under %v: a shaped value is being moved between freelist keys",
			bound, k))
	}
	f.ck.prov[id] = k
}

func (f *Freelist[K, V]) checkPut(k K, v V) {
	id, ok := freelistProvKey(v)
	if !ok {
		return
	}
	f.ck.mu.Lock()
	defer f.ck.mu.Unlock()
	if f.ck.prov == nil {
		f.ck.prov = make(map[any]K)
	}
	if bound, seen := f.ck.prov[id]; seen {
		if bound != k {
			panic(fmt.Sprintf(
				"mempool.Freelist.Put: value bound to key %v parked under %v: wrong-shaped value would be vended to a future Get(%v)",
				bound, k, k))
		}
		return
	}
	f.ck.prov[id] = k // first Put binds the value to its key
}

func (s *SlicePool[T]) park(b []T) {
	poison(b)
	shadowPark(b)
	s.ck.mu.Lock()
	defer s.ck.mu.Unlock()
	s.ck.epochs.park(chunkKey(b), "mempool.SlicePool")
	s.ck.parked = append(s.ck.parked, b)
}

func (s *SlicePool[T]) unpark() ([]T, bool) {
	s.ck.mu.Lock()
	n := len(s.ck.parked)
	if n == 0 {
		s.ck.mu.Unlock()
		return nil, false
	}
	b := s.ck.parked[n-1]
	s.ck.parked[n-1] = nil
	s.ck.parked = s.ck.parked[:n-1]
	s.ck.epochs.unpark(chunkKey(b))
	s.ck.mu.Unlock()
	assertPoisoned(b, "mempool.SlicePool")
	assertShadow(b, "mempool.SlicePool")
	return b[:0], true
}

// epochSet is the checked-mode shadow epoch registry: one monotonically
// increasing counter per chunk backing array, incremented at every park and
// every unpark, so the counter's parity is the chunk's residency — even is
// live (vended or never seen), odd is parked. It closes a gap the byte
// sentinel leaves open regardless of element type: a chunk parked twice
// with no intervening vend (double Put) passes the poison assert — the
// second park just re-writes the sentinel — yet aliases one backing array
// to two future Gets. The parity check rejects the second park instead.
type epochSet struct {
	ep map[unsafe.Pointer]uint64
}

// park advances the chunk to parked; callers must hold the owning cache's
// mutex (the panic path releases it via their deferred Unlock).
func (e *epochSet) park(p unsafe.Pointer, owner string) {
	if p == nil {
		return
	}
	if e.ep == nil {
		e.ep = make(map[unsafe.Pointer]uint64)
	}
	if e.ep[p]%2 == 1 {
		panic(fmt.Sprintf(
			"%s: double recycle detected: chunk parked twice with no intervening Get (shadow epoch %d); two future Gets would vend aliases of the same storage",
			owner, e.ep[p]))
	}
	e.ep[p]++
}

// unpark advances the chunk back to live; callers must hold the owning
// cache's mutex.
func (e *epochSet) unpark(p unsafe.Pointer) {
	if p == nil || e.ep == nil {
		return
	}
	e.ep[p]++
}

// chunkKey identifies a chunk by its backing-array pointer (nil for
// zero-capacity slices, which carry no storage to track).
func chunkKey[T any](b []T) unsafe.Pointer {
	if cap(b) == 0 {
		return nil
	}
	return unsafe.Pointer(unsafe.SliceData(b[:cap(b)]))
}

// shadowPark is poison's twin for the element types the byte sentinel must
// skip: it clears the chunk's full capacity to zero values — always safe
// under the GC — so assertShadow can detect a write through a stale
// reference at re-vend time. Clearing also drops whatever the elements
// pointed at, so parked pointered chunks never pin dead object graphs.
func shadowPark[T any](b []T) {
	if !pointered[T]() {
		return
	}
	full := b[:cap(b)]
	var zero T
	for i := range full {
		full[i] = zero
	}
}

// assertShadow panics when a zero-parked chunk no longer reads as zero
// values: someone wrote through a stale reference between Put/Release and
// this re-vend. Pointer-free storage is covered by assertPoisoned instead.
func assertShadow[T any](b []T, owner string) {
	if !pointered[T]() {
		return
	}
	full := b[:cap(b)]
	for i := range full {
		if !reflect.ValueOf(&full[i]).Elem().IsZero() {
			panic(fmt.Sprintf(
				"%s: use-after-recycle detected: element %d of a parked chunk was overwritten after Put/Release (want the zero value written at park time); some caller retained pointered storage past its recycle point",
				owner, i))
		}
	}
}

// pointered reports whether T contains pointers and has bytes to check —
// exactly the element types byteView refuses and the shadow layer covers.
func pointered[T any]() bool {
	var zero T
	t := reflect.TypeOf(zero)
	return t != nil && t.Size() > 0 && !pointerFree(t)
}

// poison writes the sentinel over b's full capacity when T is pointer-free.
func poison[T any](b []T) {
	bs, ok := byteView(b)
	if !ok {
		return
	}
	for i := range bs {
		bs[i] = poisonByte
	}
}

// assertPoisoned panics when any byte of b's storage no longer carries the
// sentinel written at park time: someone wrote through a stale reference
// between Put/Release and this re-vend.
func assertPoisoned[T any](b []T, owner string) {
	bs, ok := byteView(b)
	if !ok {
		return
	}
	for i, x := range bs {
		if x != poisonByte {
			panic(fmt.Sprintf(
				"%s: use-after-recycle detected: byte %d of a parked chunk was overwritten after Put/Release (want poison %#x, found %#x); some caller retained the storage past its recycle point",
				owner, i, poisonByte, x))
		}
	}
}

// byteView reinterprets b's full capacity as raw bytes. It refuses element
// types containing pointers (the GC owns those bits) and zero-sized or
// zero-capacity storage.
func byteView[T any](b []T) ([]byte, bool) {
	if cap(b) == 0 {
		return nil, false
	}
	var zero T
	t := reflect.TypeOf(zero)
	if t == nil || t.Size() == 0 || !pointerFree(t) {
		return nil, false
	}
	full := b[:cap(b)]
	n := cap(b) * int(t.Size())
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(full))), n), true
}

// pointerFree reports whether values of t contain no pointers anywhere, so
// scribbling their bytes cannot confuse the garbage collector.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
