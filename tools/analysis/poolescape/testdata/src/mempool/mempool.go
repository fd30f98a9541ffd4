// Package mempool mirrors the producing method surface of
// fastcc/internal/mempool so poolescape fixtures see realistically typed
// call sites. Bodies are stubs; only the names and signatures matter — the
// analyzer keys on the package name, the receiver type name and the method
// name.
package mempool

// Pool is the chunked append-only arena stub.
type Pool[T any] struct{ chunks [][]T }

func (p *Pool[T]) Append(v T)    {}
func (p *Pool[T]) Chunks() [][]T { return p.chunks }
func (p *Pool[T]) Reset()        {}

// List is the concatenated chunk list stub.
type List[T any] struct{ chunks [][]T }

func (l *List[T]) Chunks() [][]T { return l.chunks }

// SlicePool recycles flat scratch slices.
type SlicePool[T any] struct{}

func (s *SlicePool[T]) Get(capHint int) []T { return make([]T, 0, capHint) }
func (s *SlicePool[T]) Put(b []T)           {}

// Freelist parks shaped scratch values by key.
type Freelist[K comparable, V any] struct{}

func (f *Freelist[K, V]) Get(k K) (V, bool) { var zero V; return zero, false }
func (f *Freelist[K, V]) Put(k K, v V)      {}
