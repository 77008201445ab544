package cache

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"whirlpool/internal/addr"
)

// refLRU is a trivially correct fully-associative LRU: a slice in MRU to
// LRU order, searched linearly. It is the oracle CapLRU's indexed
// implementation is differential-tested against.
type refLRU struct {
	capacity int
	lines    []Eviction // MRU first; Eviction doubles as {line, dirty}
}

func (r *refLRU) find(l addr.Line) int {
	for i, e := range r.lines {
		if e.Line == l {
			return i
		}
	}
	return -1
}

func (r *refLRU) evictLRU() Eviction {
	ev := r.lines[len(r.lines)-1]
	r.lines = r.lines[:len(r.lines)-1]
	return ev
}

func (r *refLRU) access(l addr.Line, write bool) (bool, Eviction, bool) {
	if i := r.find(l); i >= 0 {
		e := r.lines[i]
		e.Dirty = e.Dirty || write
		r.lines = append(r.lines[:i], r.lines[i+1:]...)
		r.lines = append([]Eviction{e}, r.lines...)
		return true, Eviction{}, false
	}
	if r.capacity == 0 {
		return false, Eviction{}, false
	}
	var ev Eviction
	evicted := false
	if len(r.lines) >= r.capacity {
		ev, evicted = r.evictLRU(), true
	}
	r.lines = append([]Eviction{{Line: l, Dirty: write}}, r.lines...)
	return false, ev, evicted
}

func (r *refLRU) writeback(l addr.Line) bool {
	i := r.find(l)
	if i >= 0 {
		r.lines[i].Dirty = true
	}
	return i >= 0
}

func (r *refLRU) resize(capacity int) []Eviction {
	r.capacity = capacity
	var evs []Eviction
	for len(r.lines) > capacity {
		evs = append(evs, r.evictLRU())
	}
	return evs
}

func (r *refLRU) invalidateAll() (lines, dirty int) {
	for _, e := range r.lines {
		if e.Dirty {
			dirty++
		}
	}
	lines = len(r.lines)
	r.lines = nil
	return lines, dirty
}

// TestCapLRUMatchesReference drives CapLRU and the reference LRU with the
// same seeded random mix of Access, Writeback, Contains, Resize and
// InvalidateAll, and requires identical hits, evictions, dirty bits and
// MRU-to-LRU contents after every step. Line universes range from a few
// times the capacity (hits and promotions) to far beyond it (constant
// eviction, so the index deletes and regrows continuously).
func TestCapLRUMatchesReference(t *testing.T) {
	cases := []struct {
		capacity, universe int
		spread             uint64 // line stride, so keys are not dense
	}{
		{8, 12, 1},
		{64, 200, 1},
		{300, 1000, 4097},
		{1000, 50_000, 1 << 33},
	}
	for ci, tc := range cases {
		rng := rand.New(rand.NewPCG(uint64(ci)+1, 7))
		c := NewCapLRU(tc.capacity)
		r := &refLRU{capacity: tc.capacity}
		for step := 0; step < 20_000; step++ {
			l := addr.Line(rng.Uint64N(uint64(tc.universe)) * tc.spread)
			switch op := rng.IntN(100); {
			case op < 80:
				write := rng.IntN(4) == 0
				hit, ev, evd := c.Access(l, write)
				rhit, rev, revd := r.access(l, write)
				if hit != rhit || ev != rev || evd != revd {
					t.Fatalf("case %d step %d: Access(%d) = (%v, %+v, %v), reference (%v, %+v, %v)",
						ci, step, l, hit, ev, evd, rhit, rev, revd)
				}
			case op < 92:
				if got, want := c.Writeback(l), r.writeback(l); got != want {
					t.Fatalf("case %d step %d: Writeback(%d) = %v, reference %v", ci, step, l, got, want)
				}
			case op < 97:
				if got, want := c.Contains(l), r.find(l) >= 0; got != want {
					t.Fatalf("case %d step %d: Contains(%d) = %v, reference %v", ci, step, l, got, want)
				}
			case op < 99:
				capacity := rng.IntN(2 * tc.capacity)
				got, want := c.Resize(capacity), r.resize(capacity)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("case %d step %d: Resize(%d) evicted %v, reference %v", ci, step, capacity, got, want)
				}
			default:
				gl, gd := c.InvalidateAll()
				rl, rd := r.invalidateAll()
				if gl != rl || gd != rd {
					t.Fatalf("case %d step %d: InvalidateAll = (%d, %d), reference (%d, %d)", ci, step, gl, gd, rl, rd)
				}
			}
			if c.Size() != len(r.lines) {
				t.Fatalf("case %d step %d: Size %d, reference %d", ci, step, c.Size(), len(r.lines))
			}
			if step%97 == 0 {
				var order []addr.Line
				c.ForEach(func(l addr.Line) { order = append(order, l) })
				for i, e := range r.lines {
					if i >= len(order) || order[i] != e.Line {
						t.Fatalf("case %d step %d: ForEach order %v, reference %v", ci, step, order, r.lines)
					}
				}
			}
		}
	}
}
