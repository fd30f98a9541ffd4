//go:build !fastcc_checked

package mempool

// Checked reports whether the fastcc_checked lifetime assertions are
// compiled in. Tests use it to decide whether a deliberate use-after-recycle
// must panic (checked builds) or pass silently (normal builds).
const Checked = false

// checkedSlice and checkedFreelist are the zero-sized placeholders for the
// checked-mode bookkeeping; the normal build parks storage in sync.Pool and
// performs no poisoning or provenance tracking, keeping the recycle path
// free of locks and sweeps.
type (
	checkedSlice[T any]                  struct{}
	checkedFreelist[K comparable, V any] struct{}
)

// note / checkPut implement Freelist provenance only under fastcc_checked;
// the normal build parks values without validating which key they belong to.
func (f *Freelist[K, V]) note(K, V)     {}
func (f *Freelist[K, V]) checkPut(K, V) {}

func (s *SlicePool[T]) park(b []T) { s.pool.Put(b) }

func (s *SlicePool[T]) unpark() ([]T, bool) {
	v := s.pool.Get()
	if v == nil {
		return nil, false
	}
	return v.([]T)[:0], true
}

// poison is the checked-mode sentinel writer; a no-op here so shared code
// (Pool.Reset) can call it unconditionally.
func poison[T any]([]T) {}
