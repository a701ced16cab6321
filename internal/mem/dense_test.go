package mem

import (
	"fmt"
	"testing"
)

// TestDenseIndexCloneIsolation exercises copy-on-write across
// Snapshot -> Clone -> write when the writers' page indexes diverge in
// length: a clone and the original both grow past the snapshot's
// high-water page, and none of it may leak into the snapshot or a sibling.
func TestDenseIndexCloneIsolation(t *testing.T) {
	m := New(64 << 20)
	m.Store64(3*PageSize, 0x33)
	snap := m.Snapshot()

	a, b := snap.Clone(), snap.Clone()
	a.Store64(100*PageSize, 0xa100) // grows a's index far past the snapshot's
	a.Store64(3*PageSize, 0xa3)     // CoW of a frozen page
	m.Store64(50*PageSize, 0x5050)  // grows the original's index too
	m.Store64(3*PageSize+8, 0x38)

	for _, c := range []struct {
		name string
		mem  *Physical
		pa   uint64
		want uint64
	}{
		{"a page 3", a, 3 * PageSize, 0xa3},
		{"a page 100", a, 100 * PageSize, 0xa100},
		{"a page 50", a, 50 * PageSize, 0},
		{"b page 3", b, 3 * PageSize, 0x33},
		{"b page 100", b, 100 * PageSize, 0},
		{"b page 3+8", b, 3*PageSize + 8, 0},
		{"original page 3", m, 3 * PageSize, 0x33},
		{"original page 3+8", m, 3*PageSize + 8, 0x38},
		{"original page 100", m, 100 * PageSize, 0},
		{"fresh clone page 3", snap.Clone(), 3 * PageSize, 0x33},
		{"fresh clone page 50", snap.Clone(), 50 * PageSize, 0},
	} {
		if got := c.mem.Load64(c.pa); got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, got, c.want)
		}
	}
	if a.Pages() != 2 || b.Pages() != 1 || m.Pages() != 2 || snap.Pages() != 1 {
		t.Errorf("pages a=%d b=%d original=%d snapshot=%d, want 2 1 2 1",
			a.Pages(), b.Pages(), m.Pages(), snap.Pages())
	}
}

// TestWritePastHighWater checks that a write far beyond the highest touched
// page extends the index without disturbing existing pages, and that reads
// between and beyond the touched pages see zeros.
func TestWritePastHighWater(t *testing.T) {
	m := New(1 << 30)
	m.Store64(0, 1)
	last := uint64(1<<30) - 8
	m.Store64(last, 2)
	m.Store64(PageSize, 3)
	if v := m.Load64(0); v != 1 {
		t.Fatalf("page 0 = %d after index growth, want 1", v)
	}
	if v := m.Load64(last); v != 2 {
		t.Fatalf("last word = %d, want 2", v)
	}
	if v := m.Load64(PageSize); v != 3 {
		t.Fatalf("page 1 = %d, want 3", v)
	}
	if v := m.Load64(1 << 29); v != 0 {
		t.Fatalf("untouched middle page = %#x, want 0", v)
	}
	fresh := New(1 << 30)
	if v := fresh.Load64(last); v != 0 {
		t.Fatalf("read past an empty index = %#x, want 0", v)
	}
	if fresh.Pages() != 0 {
		t.Fatalf("a read touched %d pages", fresh.Pages())
	}
	if m.Pages() != 3 {
		t.Fatalf("pages = %d, want 3", m.Pages())
	}
}

// TestCapacityPanicMessages pins the bad-access panics: every accessor
// panics at the capacity boundary, with the same message text as before
// the index became dense.
func TestCapacityPanicMessages(t *testing.T) {
	const size = 4 * PageSize
	m := New(size)
	m.Store64(size-8, 7) // the last word is in range
	panicText := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return "no panic"
	}
	bounds := fmt.Sprintf("mem: physical access 0x%x beyond capacity 0x%x", size, size)
	for name, f := range map[string]func(){
		"Load64":  func() { m.Load64(size) },
		"Store64": func() { m.Store64(size, 1) },
		"Load32":  func() { m.Load32(size) },
		"Store32": func() { m.Store32(size, 1) },
		"Read":    func() { m.Read(size-4, make([]byte, 8)) },
		"Write":   func() { m.Write(size-4, make([]byte, 8)) },
	} {
		if got := panicText(f); got != bounds {
			t.Errorf("%s past capacity: panic %q, want %q", name, got, bounds)
		}
	}
	if got, want := panicText(func() { m.Load64(0x104) }), "mem: misaligned 8-byte access at 0x104"; got != want {
		t.Errorf("misaligned Load64: panic %q, want %q", got, want)
	}
}

// TestPagesCountsTouched checks Pages against the set of distinct pages
// written, through repeated writes, CoW copies and clone growth.
func TestPagesCountsTouched(t *testing.T) {
	m := New(16 << 20)
	touched := map[uint64]bool{}
	for i := uint64(0); i < 500; i++ {
		pa := (i * 7919 * 8) % (16 << 20)
		m.Store64(pa, i)
		touched[pa/PageSize] = true
		if m.Pages() != len(touched) {
			t.Fatalf("after %d writes: Pages = %d, distinct pages = %d", i+1, m.Pages(), len(touched))
		}
	}
	snap := m.Snapshot()
	c := snap.Clone()
	for pa := range touched {
		c.Store64(pa*PageSize, 1) // CoW: no new pages
	}
	if c.Pages() != len(touched) || snap.Pages() != len(touched) {
		t.Fatalf("after CoW writes: clone %d snapshot %d, want %d", c.Pages(), snap.Pages(), len(touched))
	}
}

// TestLoadStoreZeroAllocs guards the access path: loads, stores and the
// mark AMOs on touched pages (frozen ones already copied) allocate nothing.
func TestLoadStoreZeroAllocs(t *testing.T) {
	m := New(1 << 20)
	for pa := uint64(0); pa < 16*PageSize; pa += PageSize {
		m.Store64(pa, 1)
	}
	m = m.Snapshot().Clone()
	for pa := uint64(0); pa < 16*PageSize; pa += PageSize {
		m.Store64(pa, 2) // take the CoW copies up front
	}
	pa := uint64(0)
	step := func() {
		for i := 0; i < 64; i++ {
			pa = (pa + 520) % (16 * PageSize)
			m.Store64(pa, m.Load64(pa)+1)
			m.FetchOr64(pa, 1)
			m.FetchAnd64(pa, ^uint64(2))
			m.Store32(pa, m.Load32(pa+4))
		}
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("Load/Store on touched pages allocate %.1f per run, want 0", allocs)
	}
}
