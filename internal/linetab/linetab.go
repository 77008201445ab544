// Package linetab is a small open-addressed hash table keyed by uint64
// (line or page numbers) for simulation-kernel state consulted on every
// access. Slots hold the key and value inline, probing is linear,
// deletion shifts the probe chain back instead of leaving tombstones,
// and the load factor stays at or below one half.
//
// Unlike a Go map, iteration order is deterministic: it is slot order,
// which depends only on the sequence of inserts and deletes.
package linetab

import "math/bits"

// Hash mixes k for slot selection (Fibonacci hashing). Callers take the
// high bits: they are the well-mixed ones, and consecutive keys (the
// common case for line and page numbers) land far apart.
func Hash(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

const minSlots = 16

type slot[V any] struct {
	k uint64 // key+1; 0 marks an empty slot
	v V
}

// Table maps uint64 keys to values of type V. The zero value is an empty
// table ready to use. The largest uint64 is reserved and may not be used
// as a key. A Table is not safe for concurrent use.
type Table[V any] struct {
	slots []slot[V]
	n     int
	shift uint // 64 - log2(len(slots))
}

// Len returns the number of keys in the table.
func (t *Table[V]) Len() int { return t.n }

func (t *Table[V]) home(k uint64) int { return int(Hash(k) >> t.shift) }

// find returns the slot holding k, or the empty slot where k would be
// inserted and false. The table must have slots.
func (t *Table[V]) find(k uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].k {
		case k + 1:
			return i, true
		case 0:
			return i, false
		}
	}
}

// Ptr returns a pointer to the value stored under k, or nil when k is
// absent. The pointer is valid until the next Insert or Put of a new key
// or the next Delete.
func (t *Table[V]) Ptr(k uint64) *V {
	if t.n == 0 {
		return nil
	}
	if i, ok := t.find(k); ok {
		return &t.slots[i].v
	}
	return nil
}

// Insert returns a pointer to the value stored under k, first inserting
// a zero value when k is absent; existed reports whether it was present.
// The pointer has the lifetime Ptr documents.
func (t *Table[V]) Insert(k uint64) (v *V, existed bool) {
	if k+1 == 0 {
		panic("linetab: the largest uint64 is a reserved key")
	}
	var i int
	if len(t.slots) > 0 {
		var ok bool
		if i, ok = t.find(k); ok {
			return &t.slots[i].v, true
		}
	}
	if (t.n+1)*2 > len(t.slots) {
		t.grow()
		i, _ = t.find(k)
	}
	t.slots[i].k = k + 1
	t.n++
	return &t.slots[i].v, false
}

// Put stores v under k.
func (t *Table[V]) Put(k uint64, v V) {
	p, _ := t.Insert(k)
	*p = v
}

// Delete removes k, reporting whether it was present. Later entries of
// k's probe chain shift back into the freed slot, so lookups never step
// over tombstones.
func (t *Table[V]) Delete(k uint64) bool {
	if t.n == 0 {
		return false
	}
	i, ok := t.find(k)
	if !ok {
		return false
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].k != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when its home is not
		// cyclically inside (i, j]: its probe distance reaches i.
		h := t.home(t.slots[j].k - 1)
		if (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.n--
	return true
}

// Range calls fn for every entry, in slot order. fn may modify the value
// through its pointer but must not insert or delete keys. The order is
// deterministic: it depends only on the sequence of inserts and deletes
// that built the table.
func (t *Table[V]) Range(fn func(k uint64, v *V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.k != 0 {
			fn(s.k-1, &s.v)
		}
	}
}

// Reset removes every entry and releases the slots.
func (t *Table[V]) Reset() { *t = Table[V]{} }

// grow doubles the slot array (or allocates the first one) and
// reinserts every entry in old slot order.
func (t *Table[V]) grow() {
	old := t.slots
	n := 2 * len(old)
	if n < minSlots {
		n = minSlots
	}
	t.slots = make([]slot[V], n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.k != 0 {
			i, _ := t.find(s.k - 1)
			t.slots[i] = s
		}
	}
}
