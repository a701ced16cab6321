package lru

import (
	"slices"
	"testing"

	"hwgc/internal/sim"
)

// TestSetMatchesRecencyList checks the Set against the definition: a list
// of keys ordered by last Get/Insert, where Insert on a full list drops the
// last element first. Removals are frequent so the hash index's
// backward-shift deletion runs often, on chains that wrap the table too.
func TestSetMatchesRecencyList(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 16, 100} {
		rng := sim.NewRand(uint64(capacity))
		s := New(capacity)
		var ref []uint64 // most recent first
		touch := func(i int) {
			k := ref[i]
			ref = slices.Insert(slices.Delete(ref, i, i+1), 0, k)
		}
		for op := 0; op < 20000; op++ {
			k := uint64(rng.Intn(3*capacity+2)) << 20 // hits, evictions and bucket collisions all common
			i := slices.Index(ref, k)
			switch r := rng.Intn(10); {
			case r < 4:
				slot, ok := s.Get(k)
				if ok != (i >= 0) || ok && s.nodes[slot].key != k {
					t.Fatalf("cap %d op %d: Get(%#x) = %d,%v, reference present=%v", capacity, op, k, slot, ok, i >= 0)
				}
				if ok {
					touch(i)
				}
			case r < 8:
				if len(ref) >= capacity {
					ref = ref[:len(ref)-1]
				}
				if i = slices.Index(ref, k); i >= 0 {
					touch(i)
				} else {
					ref = slices.Insert(ref, 0, k)
				}
				if slot := s.Insert(k); s.nodes[slot].key != k {
					t.Fatalf("cap %d op %d: Insert(%#x) returned slot holding %#x", capacity, op, k, s.nodes[slot].key)
				}
			case r < 9:
				s.Remove(k)
				if i >= 0 {
					ref = slices.Delete(ref, i, i+1)
				}
			default:
				if rng.Intn(20) == 0 {
					s.Clear()
					ref = ref[:0]
				}
			}
			if s.n != len(ref) {
				t.Fatalf("cap %d op %d: holds %d keys, reference %d", capacity, op, s.n, len(ref))
			}
		}
	}
}

// TestZeroCapacity checks that an empty set holds nothing.
func TestZeroCapacity(t *testing.T) {
	s := New(0)
	if slot := s.Insert(1); slot != -1 {
		t.Fatalf("Insert into zero-capacity set = %d, want -1", slot)
	}
	if _, ok := s.Get(1); ok || s.n != 0 {
		t.Fatal("zero-capacity set holds a key")
	}
}
