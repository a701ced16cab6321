package trace

import (
	"testing"

	"hwgc/internal/heap"
)

// TestMarkQueuePushPopZeroAllocs guards the mark loop's fast path: the
// marker and tracer call Push/Pop for every traced reference, so the
// on-chip steady state (no spill traffic) must not allocate once the rings
// and the engine's event buffers are warm.
func TestMarkQueuePushPopZeroAllocs(t *testing.T) {
	eng, mq := newMQ(t, 64, 8, false)
	refs := make([]uint64, 32)
	for i := range refs {
		refs[i] = heap.VAHeapBase + uint64(i)*8
	}
	cycle := func() {
		for _, r := range refs {
			if !mq.Push(r) {
				t.Fatal("push refused with free on-chip capacity")
			}
		}
		for range refs {
			if _, ok := mq.Pop(); !ok {
				t.Fatal("pop failed with entries queued")
			}
		}
		eng.Run()
	}
	cycle() // warm rings, ticker state, engine buffers
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state Push/Pop = %.1f allocs/run, want 0", allocs)
	}
}

// TestMarkPhaseZeroAllocs guards the unit's request path: once a unit has
// run a mark phase, a repeat phase over the same heap (every marker and
// tracer request issued, translated, retried and completed again) must not
// allocate: request slots, chunk slots, walker state, the event caches'
// hit rings and MSHR records, and the write-back retry ring are all reused.
func TestMarkPhaseZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
	}{
		{"partitioned", func(*Config) {}},
		{"partitioned-port2", func(c *Config) { c.PortDepth = 2 }},
		{"shared-port2", func(c *Config) { c.SharedCache = true; c.PortDepth = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.cfg(&cfg)
			e := newEnv(t, cfg)
			buildGraph(e.sys, 3000, 1)
			mark := func() {
				e.unit.FlushTLBs()
				runMark(t, e)
			}
			// Grow the pools and buffers to their peak. Each phase starts
			// from the cache and DRAM state the last one left, so peaks
			// differ between the first few phases; they settle by the
			// sixth.
			for i := 0; i < 8; i++ {
				mark()
			}
			marks, chunks := e.unit.Marker.Marks, e.unit.Tracer.ChunkReqs
			if allocs := testing.AllocsPerRun(4, mark); allocs != 0 {
				t.Fatalf("warm mark phase = %.1f allocs/run, want 0", allocs)
			}
			if e.unit.Marker.Marks == marks || e.unit.Tracer.ChunkReqs == chunks {
				t.Fatal("repeat phases issued no marks or chunks")
			}
			if err := e.sys.CheckMarks(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
