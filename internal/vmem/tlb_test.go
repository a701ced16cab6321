package vmem

import (
	"testing"

	"hwgc/internal/sim"
)

// refTLB is the original map-and-scan TLB, kept as the reference model the
// dense TLB must match decision for decision: every touch takes a fresh
// tick, and a full TLB evicts the entry with the oldest tick before it
// installs (or overwrites) a translation.
type refTLB struct {
	capacity int
	slots    map[uint64]refTLBEntry
	tick     uint64

	Hits, Misses uint64
}

type refTLBEntry struct {
	base    uint64
	lastUse uint64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, slots: make(map[uint64]refTLBEntry, capacity)}
}

func (t *refTLB) Lookup(va uint64) (uint64, bool) {
	t.tick++
	for _, bits := range []int{PageBits, SuperPageBits} {
		k := key(va, bits)
		if e, found := t.slots[k]; found {
			e.lastUse = t.tick
			t.slots[k] = e
			t.Hits++
			return e.base + va&((1<<uint(bits))-1), true
		}
	}
	t.Misses++
	return 0, false
}

func (t *refTLB) Insert(va, pa uint64, pageBits int) {
	if t.capacity == 0 {
		return
	}
	t.tick++
	if len(t.slots) >= t.capacity {
		var lruKey uint64
		lru := ^uint64(0)
		for k, e := range t.slots {
			if e.lastUse < lru {
				lru = e.lastUse
				lruKey = k
			}
		}
		delete(t.slots, lruKey)
	}
	mask := uint64(1)<<uint(pageBits) - 1
	t.slots[key(va, pageBits)] = refTLBEntry{base: pa &^ mask, lastUse: t.tick}
}

func (t *refTLB) InvalidatePage(va uint64) {
	for _, bits := range []int{PageBits, SuperPageBits} {
		delete(t.slots, key(va, bits))
	}
}

func (t *refTLB) Flush() { t.slots = make(map[uint64]refTLBEntry, t.capacity) }

// TestTLBMatchesReference drives the dense TLB and the reference model with
// the same seeded operation streams — mixed 4 KiB and superpage inserts
// over a small address pool (so inserts of present keys into a full TLB are
// frequent), lookups, invalidations and flushes — and requires identical
// hit/miss streams, physical addresses and counters.
func TestTLBMatchesReference(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 3, 8, 32, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := sim.NewRand(seed*1000 + uint64(capacity))
			got, want := NewTLB(capacity), newRefTLB(capacity)
			// Addresses fall in four 2 MiB regions with a page pool per
			// region near the capacity, so hits, evictions and overlapping
			// 4 KiB and superpage entries are all common.
			pool := capacity + 2
			va := func() uint64 {
				return uint64(rng.Intn(4))<<SuperPageBits | uint64(rng.Intn(pool))<<PageBits |
					uint64(rng.Intn(1<<PageBits))
			}
			presentWhenFull := 0
			insert := func(v, pa uint64, bits int) {
				if _, ok := want.slots[key(v, bits)]; ok && len(want.slots) == capacity {
					presentWhenFull++
				}
				got.Insert(v, pa, bits)
				want.Insert(v, pa, bits)
			}
			for op := 0; op < 5000; op++ {
				switch r := rng.Intn(100); {
				case r < 50:
					v := va()
					gpa, gok := got.Lookup(v)
					wpa, wok := want.Lookup(v)
					if gpa != wpa || gok != wok {
						t.Fatalf("cap %d seed %d op %d: Lookup(%#x) = %#x,%v, reference %#x,%v",
							capacity, seed, op, v, gpa, gok, wpa, wok)
					}
				case r < 80:
					insert(va(), uint64(rng.Intn(1<<20))<<PageBits, PageBits)
				case r < 90:
					insert(va(), uint64(rng.Intn(64))<<SuperPageBits, SuperPageBits)
				case r < 98:
					v := va()
					got.InvalidatePage(v)
					want.InvalidatePage(v)
				default:
					got.Flush()
					want.Flush()
				}
			}
			if got.Hits != want.Hits || got.Misses != want.Misses {
				t.Fatalf("cap %d seed %d: hits/misses %d/%d, reference %d/%d",
					capacity, seed, got.Hits, got.Misses, want.Hits, want.Misses)
			}
			if capacity > 0 && presentWhenFull == 0 {
				t.Fatalf("cap %d seed %d: stream never inserted a present key into a full TLB", capacity, seed)
			}
		}
	}
}

// TestTLBInsertPresentWhenFull pins the evict-then-overwrite corner: an
// insert of a key that is already present into a full TLB still evicts the
// least recently used entry, leaving the TLB one short of full.
func TestTLBInsertPresentWhenFull(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(0x1000, 0xa000, PageBits)
	tlb.Insert(0x2000, 0xb000, PageBits)
	tlb.Insert(0x2000, 0xc000, PageBits) // full: evicts 0x1000, overwrites 0x2000
	if _, ok := tlb.Lookup(0x1000); ok {
		t.Fatal("LRU entry survived an insert into a full TLB")
	}
	if pa, ok := tlb.Lookup(0x2000); !ok || pa != 0xc000 {
		t.Fatalf("overwritten entry = %#x,%v, want 0xc000,true", pa, ok)
	}
	// The freed entry is usable again without another eviction.
	tlb.Insert(0x3000, 0xd000, PageBits)
	if _, ok := tlb.Lookup(0x2000); !ok {
		t.Fatal("entry evicted although the TLB had a free slot")
	}
}

// TestTLBZeroAllocs guards the steady state: lookups, inserts with
// eviction, invalidations and flushes of a warm TLB allocate nothing.
func TestTLBZeroAllocs(t *testing.T) {
	tlb := NewTLB(32)
	va := uint64(0)
	step := func() {
		for i := 0; i < 64; i++ {
			va += PageSize
			if _, ok := tlb.Lookup(va); !ok {
				tlb.Insert(va, va+0x1000_0000, PageBits)
			}
			tlb.Lookup(va - 8*PageSize)
		}
		tlb.InvalidatePage(va)
		tlb.Insert(va, 0x4000_0000, SuperPageBits)
		tlb.Flush()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state TLB allocates %.1f per run, want 0", allocs)
	}
}
