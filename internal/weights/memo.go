package weights

import (
	"sync"
	"sync/atomic"
)

// Memo is a lock-free-read memo table for evaluator caches whose entries
// are written once and read many times (cost-model estimates probed on
// every vertex/edge evaluation). It is an open-addressing hash table whose
// slots publish their value pointer with a release store; readers probe
// with acquire loads and never take a lock, never hash twice, and never
// touch a shared cache line — the RWMutex read path it replaces serializes
// readers on the lock's reader counter, so concurrent solves sharing one
// memo would contend on it. Writers serialize on one mutex; growth doubles the table and
// republishes it atomically, so insertion stays amortized O(1) with ≈2
// copies per entry over the table's lifetime.
//
// Entries are write-once: the first value recorded for a key wins and a
// later Put of the same key is ignored. Values for a given key must
// therefore be deterministic — racing writers may both compute an entry
// and either may be the one kept. A reader racing a table growth may probe
// the old table and miss an entry that only the new table holds; the
// caller then recomputes the same value and Put discards the duplicate.
//
// K must be hashed by the caller: New takes the hash function (a couple of
// integer multiplies for the solver's small integer keys, cheaper than a
// generic 12-byte runtime hash).
type Memo[K comparable, V any] struct {
	hash  func(K) uint64
	table atomic.Pointer[memoTable[K, V]]
	mu    sync.Mutex // writers only
	count int        // entries inserted; guarded by mu
}

// memoTable is one immutable-size open-addressing array. Slot keys are
// written before the value pointer is store-released, so a reader that
// acquires a non-nil value pointer sees the matching key.
type memoTable[K comparable, V any] struct {
	mask  uint64
	slots []memoSlot[K, V]
}

type memoSlot[K comparable, V any] struct {
	v   atomic.Pointer[V]
	key K
}

// NewMemo returns an empty memo using hash to place keys. Hash quality
// matters only for probe lengths; equality is always checked on the key.
func NewMemo[K comparable, V any](hash func(K) uint64) *Memo[K, V] {
	return &Memo[K, V]{hash: hash}
}

// Get returns the value recorded for k: one hash, one linear probe, no
// lock.
func (m *Memo[K, V]) Get(k K) *V {
	t := m.table.Load()
	if t == nil {
		return nil
	}
	h := m.hash(k)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		v := s.v.Load()
		if v == nil {
			return nil
		}
		if s.key == k {
			return v
		}
	}
}

// Put records k → v unless the key is already present (first value wins).
// The entry is immediately visible to concurrent Gets.
func (m *Memo[K, V]) Put(k K, v *V) {
	m.mu.Lock()
	t := m.table.Load()
	// Grow at 50% load so reader probes stay short.
	if t == nil || uint64(m.count+1) > uint64(len(t.slots))/2 {
		t = m.grow(t)
	}
	h := m.hash(k)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.v.Load() == nil {
			s.key = k
			s.v.Store(v) // release: publishes the key write above
			m.count++
			break
		}
		if s.key == k {
			break // write-once: keep the first value
		}
	}
	m.mu.Unlock()
}

// grow doubles the table (from a 64-slot floor), rehashes every entry, and
// publishes the new table. Readers concurrently probing the old table see
// a consistent (if slightly stale) view. Caller holds mu.
func (m *Memo[K, V]) grow(old *memoTable[K, V]) *memoTable[K, V] {
	n := 64
	if old != nil {
		n = len(old.slots) * 2
	}
	t := &memoTable[K, V]{mask: uint64(n - 1), slots: make([]memoSlot[K, V], n)}
	if old != nil {
		for i := range old.slots {
			v := old.slots[i].v.Load()
			if v == nil {
				continue
			}
			h := m.hash(old.slots[i].key)
			for j := h & t.mask; ; j = (j + 1) & t.mask {
				if t.slots[j].v.Load() == nil {
					t.slots[j].key = old.slots[i].key
					t.slots[j].v.Store(v)
					break
				}
			}
		}
	}
	m.table.Store(t)
	return t
}

// Len returns the number of entries recorded.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}
