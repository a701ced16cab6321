package vmem

import "hwgc/internal/lru"

// TLB is a fully-associative translation lookaside buffer with LRU
// replacement. Entries remember their page size so superpage translations
// occupy a single entry with 2 MiB reach (the paper's suggested mitigation
// for large heaps).
//
// Storage is dense: the entries live in an lru.Set (fixed slot array,
// intrusive recency list, key->slot hash index) with each slot's physical
// page base in a parallel slice, so lookup, promotion and eviction are O(1)
// and a steady-state TLB allocates nothing.
type TLB struct {
	set  *lru.Set // key: va >> pageBits combined with size
	base []uint64 // per slot: physical base of the page

	// Hits and Misses count lookups.
	Hits   uint64
	Misses uint64
}

// NewTLB returns a TLB with the given entry count.
func NewTLB(capacity int) *TLB {
	set := lru.New(capacity)
	return &TLB{set: set, base: make([]uint64, set.Cap())}
}

// Capacity returns the configured entry count.
func (t *TLB) Capacity() int { return t.set.Cap() }

func key(va uint64, pageBits int) uint64 {
	return va>>uint(pageBits)<<6 | uint64(pageBits)
}

// Lookup translates va. It probes the 4 KiB entry first, then the
// superpage entry.
//
//hwgc:hotpath
func (t *TLB) Lookup(va uint64) (pa uint64, ok bool) {
	if slot, found := t.set.Get(key(va, PageBits)); found {
		t.Hits++
		return t.base[slot] + va&(1<<PageBits-1), true
	}
	if slot, found := t.set.Get(key(va, SuperPageBits)); found {
		t.Hits++
		return t.base[slot] + va&(1<<SuperPageBits-1), true
	}
	t.Misses++
	return 0, false
}

// Insert installs a translation for the page containing va as the most
// recently used entry. A full TLB evicts its least recently used entry
// first, even when va's page is already present (which then keeps its
// entry and leaves the TLB one short of full).
//
//hwgc:hotpath
func (t *TLB) Insert(va, pa uint64, pageBits int) {
	if slot := t.set.Insert(key(va, pageBits)); slot >= 0 {
		t.base[slot] = pa &^ (uint64(1)<<uint(pageBits) - 1)
	}
}

// InvalidatePage removes the entries covering va, if present.
func (t *TLB) InvalidatePage(va uint64) {
	t.set.Remove(key(va, PageBits))
	t.set.Remove(key(va, SuperPageBits))
}

// Flush empties the TLB in place.
func (t *TLB) Flush() { t.set.Clear() }

// HitRate returns Hits / (Hits + Misses).
func (t *TLB) HitRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Hits) / float64(total)
}
