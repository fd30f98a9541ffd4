// Package mempool provides chunked, append-only arenas: threads push
// elements into thread-local chunk lists and a coordinator concatenates
// those lists by reference, never copying element data — the Go analogue
// of the paper's 512 MB-chunk memory-pool layer for COO output
// construction (Section 4.2), kept for the baseline engines.
//
// It also provides the recycling layer the contraction engine and the
// prepared-operand API build on: Freelist keeps shaped scratch objects
// (per-worker accumulators and drain segments) alive between runs, and
// SlicePool recycles flat slices.
//
// # Checked mode
//
// Recycling bugs — a caller holding a buffer past Put, a value parked under
// the wrong key — are invisible to the garbage collector and the race
// detector. Building with -tags fastcc_checked arms this package's lifetime
// assertions: recycled storage of pointer-free element types is poisoned
// with a sentinel byte pattern when parked and verified when re-vended, so
// a write after the recycle point becomes a deterministic panic at the next
// Get instead of silent corruption; parking switches from sync.Pool to a
// deterministic LIFO so the panic is reproducible; and Freelist tracks each
// value's key provenance. The static side of the same contract is the
// poolescape analyzer in tools/analysis.
package mempool

import (
	"sync"
	"sync/atomic"

	"fastcc/internal/lockcheck"
)

// DefaultChunkLen is the number of elements per chunk when none is given.
// The paper uses 512 MB chunks; we size in elements so the pool is type-
// agnostic, and default to 64 Ki elements (1.5 MiB for a 24-byte triple) —
// large enough to amortize allocation, small enough for laptop workloads.
const DefaultChunkLen = 64 * 1024

// Pool is a chunked append-only arena of T. The zero value is NOT ready to
// use; call New. Pools are not safe for concurrent use: each worker owns one.
type Pool[T any] struct {
	chunkLen int
	chunks   [][]T
	n        int
}

// New returns a pool with the given chunk length (elements per allocation).
// chunkLen <= 0 selects DefaultChunkLen.
func New[T any](chunkLen int) *Pool[T] {
	if chunkLen <= 0 {
		chunkLen = DefaultChunkLen
	}
	return &Pool[T]{chunkLen: chunkLen}
}

// Append adds one element, allocating a new chunk when the tail is full.
//
//fastcc:hotpath
func (p *Pool[T]) Append(v T) {
	if len(p.chunks) == 0 || len(p.chunks[len(p.chunks)-1]) == cap(p.chunks[len(p.chunks)-1]) {
		p.chunks = append(p.chunks, make([]T, 0, p.chunkLen)) //fastcc:allow hotalloc -- chunk allocation IS the amortization, once per chunkLen appends
	}
	last := len(p.chunks) - 1
	p.chunks[last] = append(p.chunks[last], v) //fastcc:allow hotalloc -- tail append is capacity-bounded, never reallocates
	p.n++
}

// Len returns the number of elements appended.
func (p *Pool[T]) Len() int { return p.n }

// Chunks returns the underlying chunk slices. Callers must treat them as
// read-only; they remain owned by the pool.
func (p *Pool[T]) Chunks() [][]T { return p.chunks }

// ForEach calls fn for every element in append order.
func (p *Pool[T]) ForEach(fn func(T)) {
	for _, c := range p.chunks {
		for i := range c {
			fn(c[i])
		}
	}
}

// Reset drops all elements but keeps the last chunk's storage for reuse.
// Under fastcc_checked the retained storage is poisoned, so a stale Chunks
// reference reading past Reset sees the sentinel pattern instead of
// plausible stale data.
func (p *Pool[T]) Reset() {
	if len(p.chunks) > 0 {
		last := p.chunks[len(p.chunks)-1][:0]
		poison(last)
		p.chunks = p.chunks[:0]
		p.chunks = append(p.chunks, last)
	}
	p.n = 0
}

// List concatenates pools by reference (pointer movement, no element
// copies), in the order given — the paper's master-thread concatenation of
// thread-local COO lists.
type List[T any] struct {
	chunks [][]T
	n      int
}

// Concat builds a List from the pools' chunks without copying elements.
//
//fastcc:owned pools -- pointer movement IS the contract: the List takes over the pools' chunks
func Concat[T any](pools ...*Pool[T]) *List[T] {
	l := &List[T]{}
	for _, p := range pools {
		if p == nil {
			continue
		}
		for _, c := range p.chunks {
			if len(c) > 0 {
				l.chunks = append(l.chunks, c)
				l.n += len(c)
			}
		}
	}
	return l
}

// Len returns the total number of elements in the list.
func (l *List[T]) Len() int { return l.n }

// ForEach calls fn for every element.
func (l *List[T]) ForEach(fn func(T)) {
	for _, c := range l.chunks {
		for i := range c {
			fn(c[i])
		}
	}
}

// Chunks exposes the chunk slices (read-only).
func (l *List[T]) Chunks() [][]T { return l.chunks }

// Freelist is a bounded, concurrency-safe free list of reusable values
// grouped by a comparable key — the engine parks per-worker accumulators
// here between runs, keyed by their shape, so repeated contractions stop
// reallocating tile-sized buffers.
type Freelist[K comparable, V any] struct {
	mu     lockcheck.Mutex[freelistRank] //fastcc:lockrank 3 -- leaf below the core lifecycle locks; park/vend only
	perKey int
	items  map[K][]V
	ck     checkedFreelist[K, V] // zero-sized unless built with fastcc_checked
}

// freelistRank pins Freelist.mu into the dynamic lock-rank hierarchy
// (internal/lockcheck), mirroring the //fastcc:lockrank marker above for
// fastcc_checked builds.
type freelistRank struct{}

func (freelistRank) LockRank() (int, bool) { return 3, false }
func (freelistRank) RankLabel() string     { return "Freelist.mu" }

// NewFreelist returns a free list keeping at most perKey parked values per
// key (<= 0 selects 16).
func NewFreelist[K comparable, V any](perKey int) *Freelist[K, V] {
	if perKey <= 0 {
		perKey = 16
	}
	return &Freelist[K, V]{perKey: perKey, items: make(map[K][]V)}
}

// Get pops a parked value for key, reporting whether one was available.
func (f *Freelist[K, V]) Get(k K) (V, bool) {
	f.mu.Lock()
	vs := f.items[k]
	if len(vs) == 0 {
		f.mu.Unlock()
		var zero V
		return zero, false
	}
	v := vs[len(vs)-1]
	var zero V
	vs[len(vs)-1] = zero // do not pin the parked value through the backing array
	f.items[k] = vs[:len(vs)-1]
	f.mu.Unlock()
	f.note(k, v) // checked builds re-affirm the vended value's key binding
	return v, true
}

// Note registers v as belonging to key k for the checked build's provenance
// validation; a later Put of v under any other key panics at the Put instead
// of vending a wrong-shaped value at a future Get. Callers that construct a
// value for a specific key (the engine's per-shape accumulators) should Note
// it at construction time. A no-op without -tags fastcc_checked.
func (f *Freelist[K, V]) Note(k K, v V) { f.note(k, v) }

// Put parks v for future Get(k) calls and reports whether it did; full lists
// drop v for the GC. Under
// fastcc_checked, a value whose recorded provenance names a different key
// panics here — the wrong-shaped-accumulator-under-the-right-key bug is
// rejected at the recycle point, not discovered at reuse. A value never seen
// before is bound to k by this Put.
//
//fastcc:owned v -- the recycle point: the freelist owns v after this call
func (f *Freelist[K, V]) Put(k K, v V) bool {
	f.checkPut(k, v)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.items[k]) >= f.perKey {
		return false
	}
	f.items[k] = append(f.items[k], v)
	return true
}

// SlicePool recycles variable-capacity slices (the engine's sorted-tile
// arrays). Safe for concurrent use.
type SlicePool[T any] struct {
	pool    sync.Pool
	dropped atomic.Uint64
	ck      checkedSlice[T] // zero-sized unless built with fastcc_checked
}

// Get returns an empty slice with capacity at least capHint, recycled when
// a large-enough one is parked.
func (s *SlicePool[T]) Get(capHint int) []T {
	if b, ok := s.unpark(); ok && cap(b) >= capHint {
		return b
	}
	return make([]T, 0, capHint)
}

// Put parks b for reuse; the caller must not retain it. Zero-capacity
// slices carry no storage worth parking and are dropped with a count.
//
//fastcc:owned b -- the recycle point: the pool owns b after this call
func (s *SlicePool[T]) Put(b []T) {
	if cap(b) == 0 {
		s.dropped.Add(1)
		return
	}
	s.park(b[:0])
}

// Dropped reports how many Put calls were rejected (zero-capacity slices).
func (s *SlicePool[T]) Dropped() uint64 { return s.dropped.Load() }
