package mem

import "testing"

// TestSnapshotCloneIsolation is the copy-on-write contract: writes through
// a clone (or through the snapshotted original) must never become visible
// to the snapshot or to sibling clones.
func TestSnapshotCloneIsolation(t *testing.T) {
	m := New(1 << 20)
	m.Store64(0x100, 0x1111)
	m.Store64(PageSize+0x100, 0x2222)
	snap := m.Snapshot()

	a := snap.Clone()
	b := snap.Clone()

	// Mutate the same word differently through each clone and the original.
	a.Store64(0x100, 0xaaaa)
	b.Store64(0x100, 0xbbbb)
	m.Store64(0x100, 0xcccc)

	if v := a.Load64(0x100); v != 0xaaaa {
		t.Fatalf("clone a = %#x, want 0xaaaa", v)
	}
	if v := b.Load64(0x100); v != 0xbbbb {
		t.Fatalf("clone b = %#x, want 0xbbbb", v)
	}
	if v := m.Load64(0x100); v != 0xcccc {
		t.Fatalf("original = %#x, want 0xcccc", v)
	}
	// A fresh clone still sees the frozen value: nothing leaked into the
	// snapshot.
	if v := snap.Clone().Load64(0x100); v != 0x1111 {
		t.Fatalf("snapshot page mutated: %#x, want 0x1111", v)
	}
	// Untouched pages stay shared and readable through every clone.
	if v := a.Load64(PageSize + 0x100); v != 0x2222 {
		t.Fatalf("clone a shared page = %#x, want 0x2222", v)
	}

	// Writes to pages the snapshot never held stay private too.
	a.Store64(2*PageSize+0x8, 0xdddd)
	if v := b.Load64(2*PageSize + 0x8); v != 0 {
		t.Fatalf("fresh page leaked across clones: %#x", v)
	}
}

// TestSnapshotCloneBulkWrite checks the CoW path through the byte-wise
// Read/Write accessors, including a write spanning a frozen and an
// untouched page.
func TestSnapshotCloneBulkWrite(t *testing.T) {
	m := New(1 << 20)
	m.Store64(0, 0x0123456789abcdef)
	snap := m.Snapshot()
	c := snap.Clone()

	buf := make([]byte, PageSize) // spans page 0 (frozen) into page 1 (untouched)
	for i := range buf {
		buf[i] = byte(i)
	}
	c.Write(PageSize/2, buf)

	got := make([]byte, PageSize)
	c.Read(PageSize/2, got)
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("clone byte %d = %#x, want %#x", i, got[i], byte(i))
		}
	}
	if v := snap.Clone().Load64(PageSize - 8); v != 0 {
		t.Fatalf("snapshot page 0 tail mutated: %#x", v)
	}
	if v := m.Load64(0); v != 0x0123456789abcdef {
		t.Fatalf("original word clobbered: %#x", v)
	}
}

// TestSnapshotCounts pins the cost model: snapshots and clones copy the
// page index but share page data, and a clone's page count only grows
// when it writes to new pages.
func TestSnapshotCounts(t *testing.T) {
	m := New(1 << 20)
	for i := 0; i < 5; i++ {
		m.Store64(uint64(i)*PageSize, uint64(i)+1)
	}
	snap := m.Snapshot()
	if snap.Pages() != 5 {
		t.Fatalf("snapshot pages = %d, want 5", snap.Pages())
	}
	if snap.Size() != 1<<20 {
		t.Fatalf("snapshot size = %d", snap.Size())
	}
	c := snap.Clone()
	if c.Pages() != 5 {
		t.Fatalf("clone pages = %d, want 5", c.Pages())
	}
	c.Store64(7*PageSize, 0xff) // new page
	c.Store64(0, 0xff)          // CoW copy, not a new index entry
	if c.Pages() != 6 {
		t.Fatalf("clone pages after writes = %d, want 6", c.Pages())
	}
	if snap.Pages() != 5 {
		t.Fatalf("snapshot pages changed to %d", snap.Pages())
	}
}
