package linetab

import (
	"math/rand/v2"
	"testing"
)

// check requires t to hold exactly the entries of ref.
func check(tb testing.TB, step int, t *Table[int], ref map[uint64]int) {
	tb.Helper()
	if t.Len() != len(ref) {
		tb.Fatalf("step %d: Len %d, reference %d", step, t.Len(), len(ref))
	}
	seen := 0
	t.Range(func(k uint64, v *int) {
		seen++
		if want, ok := ref[k]; !ok || *v != want {
			tb.Fatalf("step %d: Range yielded %d=%d, reference has %d (present %v)", step, k, *v, want, ok)
		}
	})
	if seen != len(ref) {
		tb.Fatalf("step %d: Range yielded %d entries, reference %d", step, seen, len(ref))
	}
	for k, want := range ref {
		if p := t.Ptr(k); p == nil || *p != want {
			tb.Fatalf("step %d: Ptr(%d) = %v, reference %d", step, k, p, want)
		}
	}
}

// run drives a Table and a map[uint64]int with the same seeded random
// mix of Put, Insert, Ptr and Delete over keys, requiring identical
// answers at every step and identical contents periodically.
func run(t *testing.T, seed uint64, keys []uint64, steps int) {
	rng := rand.New(rand.NewPCG(seed, 3))
	var tab Table[int]
	ref := map[uint64]int{}
	for step := 0; step < steps; step++ {
		k := keys[rng.IntN(len(keys))]
		switch op := rng.IntN(10); {
		case op < 3:
			tab.Put(k, step)
			ref[k] = step
		case op < 5:
			p, existed := tab.Insert(k)
			want, ok := ref[k]
			if existed != ok || *p != want {
				t.Fatalf("step %d: Insert(%d) = (%d, %v), reference (%d, %v)", step, k, *p, existed, want, ok)
			}
			*p++
			ref[k] = want + 1
		case op < 7:
			p := tab.Ptr(k)
			want, ok := ref[k]
			if (p != nil) != ok || (ok && *p != want) {
				t.Fatalf("step %d: Ptr(%d) = %v, reference (%d, %v)", step, k, p, want, ok)
			}
		default:
			_, ok := ref[k]
			if got := tab.Delete(k); got != ok {
				t.Fatalf("step %d: Delete(%d) = %v, reference %v", step, k, got, ok)
			}
			delete(ref, k)
		}
		if step%31 == 0 {
			check(t, step, &tab, ref)
		}
	}
	check(t, steps, &tab, ref)
}

func TestTableMatchesMap(t *testing.T) {
	// Dense keys (line numbers), sparse keys (page numbers of scattered
	// arenas), and key 0, which the slot encoding must not confuse with
	// an empty slot.
	dense := make([]uint64, 3000)
	for i := range dense {
		dense[i] = uint64(i)
	}
	sparse := make([]uint64, 500)
	for i := range sparse {
		sparse[i] = uint64(i+1)<<44 | uint64(i*7919)
	}
	run(t, 1, dense, 60_000)
	run(t, 2, sparse, 20_000)
}

// collidingKeys returns n keys whose home is the last slot of a
// 16-slot table, so their probe chains wrap around to slot 0.
func collidingKeys(n int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if Hash(k)>>60 == 15 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestTableWrapAroundDelete forces every key into one probe chain that
// crosses the end of a minimum-size table, then deletes in every
// position of the chain: backward-shift delete must move wrapped
// entries back across the boundary (and leave entries homed after the
// hole alone).
func TestTableWrapAroundDelete(t *testing.T) {
	keys := collidingKeys(5)
	// Two keys homed at slot 0 share the wrapped region with the chain.
	for k := uint64(0); len(keys) < 7; k++ {
		if Hash(k)>>60 == 0 {
			keys = append(keys, k)
		}
	}
	for del := range keys {
		var tab Table[int]
		ref := map[uint64]int{}
		for i, k := range keys {
			tab.Put(k, i)
			ref[k] = i
		}
		if len(tab.slots) != minSlots {
			t.Fatalf("table grew to %d slots; the test needs the minimum", len(tab.slots))
		}
		check(t, del, &tab, ref)
		tab.Delete(keys[del])
		delete(ref, keys[del])
		check(t, del, &tab, ref)
		// Delete the rest in reverse and reinsert: the chain must stay
		// consistent through repeated wrap-around shifts.
		for i := len(keys) - 1; i >= 0; i-- {
			tab.Delete(keys[i])
			delete(ref, keys[i])
			check(t, i, &tab, ref)
		}
		for i, k := range keys {
			tab.Put(k, -i)
			ref[k] = -i
		}
		check(t, -1, &tab, ref)
	}
	// And the random differential over the same colliding set.
	run(t, 3, keys, 5_000)
}

// TestTableRangeDeterministic: two tables built by the same sequence of
// inserts and deletes iterate in the same order.
func TestTableRangeDeterministic(t *testing.T) {
	build := func() []uint64 {
		var tab Table[int]
		for i := uint64(0); i < 2000; i++ {
			tab.Put(i*31, int(i))
			if i%3 == 0 {
				tab.Delete(i * 17)
			}
		}
		var order []uint64
		tab.Range(func(k uint64, _ *int) { order = append(order, k) })
		return order
	}
	a, b := build(), build()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("orders differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Range order differs at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTableReservedKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inserting the reserved key did not panic")
		}
	}()
	var tab Table[int]
	tab.Put(^uint64(0), 1)
}
