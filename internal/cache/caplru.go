package cache

import (
	"math/bits"

	"whirlpool/internal/addr"
	"whirlpool/internal/linetab"
)

// CapLRU is a fully-associative LRU store with an adjustable capacity in
// lines. It models one virtual cache partition: Jigsaw's Vantage
// partitioning keeps each partition at exactly its allocated size, so the
// partition's hit/miss behaviour is that of an LRU cache of that capacity.
//
// Nodes live in a slice with an intrusive doubly-linked list and a free
// list, so steady-state operation does not allocate. Lines are found
// through an open-addressed index over that slice: each 8-byte slot
// packs a 32-bit fingerprint of the line's hash (high half) with the
// node index + 1 (low half; 0 marks an empty slot). The fingerprint's
// top bits are the slot's home, so probing, backward-shift deletion and
// growth never touch the nodes; only a fingerprint match is verified
// against the node's line. Load stays at or below one half.
type CapLRU struct {
	capacity int
	index    []uint64
	shift    uint // 32 - log2(len(index))
	n        int  // resident lines
	nodes    []capNode
	free     []int32
	head     int32 // MRU; -1 when empty
	tail     int32 // LRU; -1 when empty

	Hits   uint64
	Misses uint64
}

type capNode struct {
	line       addr.Line
	prev, next int32
	dirty      bool
}

// NewCapLRU creates a store with the given capacity in lines (may be 0).
func NewCapLRU(capacity int) *CapLRU {
	return &CapLRU{
		capacity: capacity,
		head:     -1,
		tail:     -1,
	}
}

// Capacity returns the current capacity in lines.
func (c *CapLRU) Capacity() int { return c.capacity }

// Size returns the number of resident lines.
func (c *CapLRU) Size() int { return c.n }

func fingerprint(l addr.Line) uint64 { return linetab.Hash(uint64(l)) >> 32 }

// lookup returns the node holding l.
func (c *CapLRU) lookup(l addr.Line) (int32, bool) {
	if c.n == 0 {
		return 0, false
	}
	fp := fingerprint(l)
	mask := len(c.index) - 1
	for i := int(fp >> c.shift); ; i = (i + 1) & mask {
		s := c.index[i]
		if s == 0 {
			return 0, false
		}
		if s>>32 == fp {
			if ni := int32(uint32(s)) - 1; c.nodes[ni].line == l {
				return ni, true
			}
		}
	}
}

// indexInsert records node ni (holding a line absent from the index).
func (c *CapLRU) indexInsert(ni int32) {
	if (c.n+1)*2 > len(c.index) {
		c.growIndex()
	}
	c.place(fingerprint(c.nodes[ni].line)<<32 | uint64(ni+1))
	c.n++
}

// place stores slot s in the first free position of its probe chain.
func (c *CapLRU) place(s uint64) {
	mask := len(c.index) - 1
	i := int(s >> 32 >> c.shift)
	for c.index[i] != 0 {
		i = (i + 1) & mask
	}
	c.index[i] = s
}

// indexDelete removes node ni (holding a resident line) from the index,
// shifting later entries of its probe chain back into the hole.
func (c *CapLRU) indexDelete(ni int32) {
	want := fingerprint(c.nodes[ni].line)<<32 | uint64(ni+1)
	mask := len(c.index) - 1
	i := int(want >> 32 >> c.shift)
	for c.index[i] != want {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when its home is not
		// cyclically inside (i, j]: its probe distance reaches i.
		h := int(c.index[j] >> 32 >> c.shift)
		if (j-h)&mask >= (j-i)&mask {
			c.index[i] = c.index[j]
			i = j
		}
	}
	c.index[i] = 0
	c.n--
}

// growIndex doubles the index (or allocates the first one) and rehashes
// from the stored fingerprints alone.
func (c *CapLRU) growIndex() {
	old := c.index
	n := 2 * len(old)
	if n < 16 {
		n = 16
	}
	c.index = make([]uint64, n)
	c.shift = uint(32 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s != 0 {
			c.place(s)
		}
	}
}

func (c *CapLRU) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *CapLRU) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev = -1
	n.next = c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *CapLRU) alloc(l addr.Line, dirty bool) int32 {
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
		c.nodes[i] = capNode{line: l, dirty: dirty}
	} else {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, capNode{line: l, dirty: dirty})
	}
	return i
}

// evictLRU removes the least-recently-used line and returns it.
func (c *CapLRU) evictLRU() Eviction {
	i := c.tail
	n := c.nodes[i]
	c.indexDelete(i)
	c.unlink(i)
	c.free = append(c.free, i)
	return Eviction{Line: n.line, Dirty: n.dirty}
}

// Access looks up l, promoting it on a hit and inserting it on a miss.
// If capacity is zero the access always misses and nothing is inserted.
// At most one eviction results.
func (c *CapLRU) Access(l addr.Line, write bool) (hit bool, ev Eviction, evicted bool) {
	if i, ok := c.lookup(l); ok {
		c.Hits++
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		if write {
			c.nodes[i].dirty = true
		}
		return true, Eviction{}, false
	}
	c.Misses++
	if c.capacity == 0 {
		return false, Eviction{}, false
	}
	if c.n >= c.capacity {
		ev = c.evictLRU()
		evicted = true
	}
	i := c.alloc(l, write)
	c.indexInsert(i)
	c.pushFront(i)
	return false, ev, evicted
}

// Writeback marks l dirty if resident, reporting presence. It neither
// inserts nor promotes; absent lines must be written to memory.
func (c *CapLRU) Writeback(l addr.Line) bool {
	i, ok := c.lookup(l)
	if ok {
		c.nodes[i].dirty = true
	}
	return ok
}

// Contains reports whether l is resident, without updating LRU state.
func (c *CapLRU) Contains(l addr.Line) bool {
	_, ok := c.lookup(l)
	return ok
}

// Resize changes the capacity, evicting LRU lines as needed. The evicted
// lines are returned so callers can account for writebacks/invalidations.
func (c *CapLRU) Resize(capacity int) []Eviction {
	c.capacity = capacity
	var evs []Eviction
	for c.n > capacity {
		evs = append(evs, c.evictLRU())
	}
	return evs
}

// InvalidateAll empties the store, returning the number of lines dropped
// and how many of them were dirty.
func (c *CapLRU) InvalidateAll() (lines, dirty int) {
	lines = c.n
	for i := c.head; i >= 0; i = c.nodes[i].next {
		if c.nodes[i].dirty {
			dirty++
		}
	}
	c.index, c.n = nil, 0
	c.nodes = c.nodes[:0]
	c.free = c.free[:0]
	c.head, c.tail = -1, -1
	return lines, dirty
}

// ForEach calls fn for every resident line, MRU to LRU order.
func (c *CapLRU) ForEach(fn func(l addr.Line)) {
	for i := c.head; i >= 0; i = c.nodes[i].next {
		fn(c.nodes[i].line)
	}
}
