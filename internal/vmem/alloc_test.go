package vmem

import (
	"testing"

	"hwgc/internal/cache"
	"hwgc/internal/dram"
	"hwgc/internal/mem"
	"hwgc/internal/sim"
	"hwgc/internal/tilelink"
)

// allocPages is the number of mapped pages the zero-alloc tests walk. They
// are spaced so every leaf PTE sits on its own cache line, and there are
// more of them than a 1 KiB PTW cache holds, so walks keep missing.
const allocPages = 32

func allocVA(i int) uint64 { return 0x4000_0000 + uint64(i)*8*PageSize }

// newAllocWalker builds a walker over allocPages mapped pages, fetching
// PTEs through a small PTW cache when viaCache is set and straight from a
// port otherwise.
func newAllocWalker(viaCache bool, l2 *TLB) (*sim.Engine, *Walker) {
	eng := sim.NewEngine()
	m := mem.New(256 << 20)
	a := mem.NewArena(m)
	a.Alloc(1<<20, PageSize)
	pt := NewPageTable(m, a)
	for i := 0; i < allocPages; i++ {
		pt.Map(allocVA(i), 0x20_0000+uint64(i)*PageSize)
	}
	bus := tilelink.New(eng, dram.NewDDR3(eng, dram.DDR3_2000(16)))
	port := bus.NewPort("ptw", 8)
	if viaCache {
		return eng, NewWalker(eng, pt, cache.NewEvent(eng, 1<<10, 4, 1, 8, 4, port), nil, l2)
	}
	return eng, NewWalker(eng, pt, nil, port, l2)
}

// TestWalkerZeroAllocs: once warm, a page walk allocates nothing, whether
// its PTE fetches go through the PTW cache (hits and misses) or a port, and
// whether it is served by the shared L2 TLB.
func TestWalkerZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		viaCache bool
		l2       bool
	}{
		{"port", false, false},
		{"cache", true, false},
		{"l2-hit", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var l2 *TLB
			if tc.l2 {
				l2 = NewTLB(2 * allocPages)
			}
			eng, w := newAllocWalker(tc.viaCache, l2)
			resolved := 0
			done := func(_ uint64, _ int, ok bool) {
				if ok {
					resolved++
				}
			}
			walkAll := func() {
				for i := 0; i < allocPages; i++ {
					w.Walk(allocVA(i), done)
				}
				eng.Run()
			}
			walkAll() // warm queues, rings, engine buffers (and fill the L2 TLB)
			walkAll()
			fetches, l2Hits := w.PTEFetches, w.L2Hits
			if allocs := testing.AllocsPerRun(20, walkAll); allocs != 0 {
				t.Fatalf("warm walks = %.1f allocs/run, want 0", allocs)
			}
			if resolved != allocPages*23 {
				t.Fatalf("resolved %d walks, want %d", resolved, allocPages*23)
			}
			if tc.l2 {
				if w.L2Hits == l2Hits || w.PTEFetches != fetches {
					t.Fatal("walks were not served by the L2 TLB")
				}
			} else if w.PTEFetches == fetches {
				t.Fatal("walks fetched no PTEs")
			}
		})
	}
}

// TestTranslatorZeroAllocs: a warm translator allocates nothing on a TLB
// hit or on a miss that walks.
func TestTranslatorZeroAllocs(t *testing.T) {
	eng, w := newAllocWalker(true, nil)
	tr := NewTranslator(eng, NewTLB(1), w)
	resolved := 0
	done := func(_ uint64, ok bool) {
		if ok {
			resolved++
		}
	}
	// A one-entry TLB: alternating pages always miss, repeating one hits.
	miss := func() {
		for i := 0; i < 2; i++ {
			if !tr.Translate(allocVA(i), done) {
				t.Fatal("translator busy with no miss outstanding")
			}
			eng.Run()
		}
	}
	hit := func() {
		if !tr.Translate(allocVA(1), done) || tr.Busy() {
			t.Fatal("repeated page did not hit")
		}
	}
	miss()
	hits, misses := tr.TLB().Hits, tr.TLB().Misses
	if allocs := testing.AllocsPerRun(50, miss); allocs != 0 {
		t.Fatalf("translator miss = %.1f allocs/run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, hit); allocs != 0 {
		t.Fatalf("translator hit = %.1f allocs/run, want 0", allocs)
	}
	if tr.TLB().Misses-misses != 2*51 || tr.TLB().Hits-hits != 51 {
		t.Fatalf("hits/misses = %d/%d, want 51/102", tr.TLB().Hits-hits, tr.TLB().Misses-misses)
	}
	if resolved != 2+3*51 {
		t.Fatalf("resolved %d translations, want %d", resolved, 2+3*51)
	}
}
