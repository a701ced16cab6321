package cache

import "testing"

// TestEventZeroAllocs: once warm, the event cache's hit, miss and
// coalesced-miss paths allocate nothing (hits complete through the hit
// ring, misses through pooled MSHR records with bound fill callbacks).
func TestEventZeroAllocs(t *testing.T) {
	const (
		lines = 1024 // 4x the 16 KiB cache: a cyclic sweep always misses
		each  = 8    // accesses per round
	)
	for _, tc := range []struct {
		name string
		addr func(round, i int) uint64
		// Tag-array hits and misses per round; a coalesced access waits
		// on its line's MSHR without reaching the tag array.
		hits, misses uint64
	}{
		{"hit", func(_, i int) uint64 { return 0x1000 + uint64(i%4)*8 }, each, 0},
		{"miss", func(round, i int) uint64 { return uint64((round*each+i)%lines) * LineSize }, 0, each},
		{"coalesce", func(round, i int) uint64 {
			return uint64((round*2+i/4)%lines)*LineSize + uint64(i%4)*8
		}, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, c := newEventCache(32)
			completed := 0
			done := func(uint64) { completed++ }
			round := 0
			access := func() {
				for i := 0; i < each; i++ {
					if !c.Access(Access{Addr: tc.addr(round, i), Size: 8, Source: "tracer", Done: done}) {
						t.Fatal("crossbar queue full")
					}
				}
				round++
				eng.Run()
			}
			for i := 0; i < 2*lines/each; i++ {
				access() // warm the rings, MSHR waiter lists and engine buffers
			}
			hits, misses, warm := c.state.Hits, c.state.Misses, round
			if allocs := testing.AllocsPerRun(100, access); allocs != 0 {
				t.Fatalf("warm %s = %.1f allocs/run, want 0", tc.name, allocs)
			}
			if completed != each*round {
				t.Fatalf("completed %d of %d accesses", completed, each*round)
			}
			n := uint64(round - warm)
			if c.state.Hits-hits != tc.hits*n || c.state.Misses-misses != tc.misses*n {
				t.Fatalf("tag hits/misses = %d/%d over %d rounds, want %d/%d per round",
					c.state.Hits-hits, c.state.Misses-misses, n, tc.hits, tc.misses)
			}
		})
	}
}
