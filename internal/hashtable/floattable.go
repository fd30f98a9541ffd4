package hashtable

// FloatTable is an open-addressing map from uint64 keys to accumulated
// float64 values: the sparse tile accumulator of paper Section 5.4. Each
// logical entry is 16 bytes (8-byte key + 8-byte value), matching the
// paper's sizing formula T = sqrt(L3_bytes / (17.7 * δ * N)); occupancy is
// tracked in a side bitmap so the full key space remains usable.
//
// The table grows at 85% load so that a model-sized table targeting 90%
// utilization of its cache share rarely spills (one final growth would
// double it; the model's headroom factor 17.7 ≈ 16/0.9 accounts for this).
//
// The table also records the slot of every key in first-insertion order, so
// ForEach and Entries visit entries in an order fixed by the upsert sequence
// alone — not by the capacity, which depends on what the table held before
// its last Reset.
type FloatTable struct {
	mask  uint64
	slots []Entry  // key and value side by side: one cache line per probe
	occ   []uint64 // occupancy bitmap, one bit per slot
	order []uint32 // occupied slots in first-insertion order; len is the key count
	grows int
}

const floatMaxLoad = 0.85

// Entry is one FloatTable slot: a key and its accumulated value.
type Entry struct {
	Key uint64
	Val float64
}

// NewFloatTable returns a table sized for about hint entries.
func NewFloatTable(hint int) *FloatTable {
	capacity := nextPow2(int(float64(hint)/floatMaxLoad) + 1)
	if capacity < 16 {
		capacity = 16
	}
	return &FloatTable{
		mask:  uint64(capacity - 1),
		slots: make([]Entry, capacity),
		occ:   make([]uint64, (capacity+63)/64),
	}
}

// Len returns the number of distinct keys.
func (t *FloatTable) Len() int { return len(t.order) }

// Cap returns the current slot count.
func (t *FloatTable) Cap() int { return len(t.slots) }

// Grows returns how many times the table has doubled (resize-cost metric
// referenced in paper Section 6.4).
func (t *FloatTable) Grows() int { return t.grows }

func (t *FloatTable) occupied(slot uint64) bool {
	return t.occ[slot>>6]&(1<<(slot&63)) != 0
}

func (t *FloatTable) setOccupied(slot uint64) {
	t.occ[slot>>6] |= 1 << (slot & 63)
}

// Upsert adds v to the value stored at key, inserting the key when absent —
// WS.upsert from paper Algorithm 4.
//
//fastcc:hotpath
func (t *FloatTable) Upsert(key uint64, v float64) {
	slot := Mix(key) & t.mask
	for {
		if !t.occupied(slot) {
			if float64(len(t.order)+1) > floatMaxLoad*float64(len(t.slots)) {
				t.grow()
				t.Upsert(key, v)
				return
			}
			t.slots[slot] = Entry{Key: key, Val: v}
			t.setOccupied(slot)
			t.order = append(t.order, uint32(slot)) //fastcc:allow hotalloc -- amortized: order tops out at the table's key count and is reused across Resets
			return
		}
		if e := &t.slots[slot]; e.Key == key {
			e.Val += v
			return
		}
		slot = (slot + 1) & t.mask
	}
}

// Get returns the accumulated value for key.
//
//fastcc:hotpath
func (t *FloatTable) Get(key uint64) (float64, bool) {
	slot := Mix(key) & t.mask
	for {
		if !t.occupied(slot) {
			return 0, false
		}
		if e := &t.slots[slot]; e.Key == key {
			return e.Val, true
		}
		slot = (slot + 1) & t.mask
	}
}

// ForEach visits every (key, value) in first-insertion order.
func (t *FloatTable) ForEach(fn func(key uint64, v float64)) {
	for _, slot := range t.order {
		fn(t.slots[slot].Key, t.slots[slot].Val)
	}
}

// Entries exposes the table for a closure-free sweep: entry k of the
// first-insertion order is slots[order[k]]. The views are read-only and
// valid until the next Upsert or Reset.
func (t *FloatTable) Entries() (order []uint32, slots []Entry) {
	return t.order, t.slots
}

// Reset drops all entries but keeps capacity, so a worker can reuse one
// accumulator across tile tasks.
func (t *FloatTable) Reset() {
	clear(t.occ)
	t.order = t.order[:0]
}

// grow doubles the capacity, re-inserting in first-insertion order and
// rewriting order with the new slots, so the visiting order survives.
func (t *FloatTable) grow() {
	old := t.slots
	capacity := len(old) * 2
	if capacity > 1<<32 {
		panic("hashtable: FloatTable capacity exceeds 2^32 slots")
	}
	t.slots = make([]Entry, capacity)
	t.occ = make([]uint64, (capacity+63)/64)
	t.mask = uint64(capacity - 1)
	t.grows++
	for k, slot := range t.order {
		t.order[k] = t.insertFresh(old[slot])
	}
}

// insertFresh inserts a key known to be absent, without load checking
// (capacity was just doubled), and returns its slot.
func (t *FloatTable) insertFresh(e Entry) uint32 {
	slot := Mix(e.Key) & t.mask
	for t.occupied(slot) {
		slot = (slot + 1) & t.mask
	}
	t.slots[slot] = e
	t.setOccupied(slot)
	return uint32(slot)
}
