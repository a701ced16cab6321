package core

import (
	"fmt"
	"strings"
	"testing"

	"hwgc/internal/cache"
	"hwgc/internal/dram"
	"hwgc/internal/workload"
)

// goldenCell is one pinned configuration. Each varies the design on an axis
// the experiments' default grid never exercises, so a host-side rewrite of
// the request path (slots, rings, pre-bound continuations) that changed any
// simulated cycle shows up here as a changed statistic.
type goldenCell struct {
	name string
	kind CollectorKind
	cfg  func(*Config)
	bus  float64 // Bus.MaxShare; 0 leaves the channel unthrottled
	want string
}

func goldenSpec() workload.Spec {
	s, _ := workload.ByName("avrora")
	s.LiveObjects = 3000
	s.Roots = 120
	return s
}

func goldenConfig() Config {
	cfg := testConfig()
	cfg.System.Heap.MarkSweepBytes = 2 << 20
	cfg.System.Heap.BumpBytes = 1 << 20
	cfg.Unit.PTWCacheBytes = 1 << 10
	cfg.Unit.L2TLBEntries = 16
	cfg.Unit.TLBEntries = 8
	return cfg
}

// goldenCells cover: a small PortDepth (marker issue retries, write-back
// stalls), the shared-cache design (cacheIssuer, the L2-TLB hit path, PTE
// fetch retries behind a full crossbar queue, crossbar stalls), the
// mark-bit cache filter, a throttled channel, the ideal pipe memory, and
// the software collector.
var goldenCells = []goldenCell{
	{
		name: "partitioned-port2",
		kind: HWCollector,
		cfg:  func(c *Config) { c.Unit.PortDepth = 2 },
		want: `gc0 mark=145296 sweep=959856 marked=3764 freed=29411
gc1 mark=127300 sweep=996029 marked=3764 freed=28383
dram {Accesses:173638 Bytes:1632344 RowHits:145245 RowMisses:8 RowConflicts:28385 BusyCycles:2147552}
bus grants=173638 busy=377681
trace walker walks=6646 ptes=19938 l2=7282
sweep walker walks=1026 ptes=3078 l2=64
marker marks=8449 wbstall=3962 filtered=0
cache stalls=0 sweep-ptw stalls=0
`,
	},
	{
		name: "shared-port2",
		kind: HWCollector,
		cfg: func(c *Config) {
			c.Unit.SharedCache = true
			c.Unit.SharedCacheBytes = 4 << 10
			c.Unit.PortDepth = 2
		},
		want: `gc0 mark=141973 sweep=959856 marked=3764 freed=29411
gc1 mark=137101 sweep=996029 marked=3764 freed=28383
dram {Accesses:159688 Bytes:2365952 RowHits:134134 RowMisses:8 RowConflicts:25546 BusyCycles:2150125}
bus grants=159688 busy=455432
trace walker walks=6637 ptes=19911 l2=7275
sweep walker walks=1026 ptes=3078 l2=64
marker marks=8449 wbstall=3650 filtered=0
cache stalls=12888 sweep-ptw stalls=0
`,
	},
	{
		name: "markbits-throttled",
		kind: HWCollector,
		cfg:  func(c *Config) { c.Unit.MarkBitCacheSize = 64 },
		bus:  0.5,
		want: `gc0 mark=152194 sweep=966531 marked=3764 freed=29411
gc1 mark=173655 sweep=992419 marked=3764 freed=28383
dram {Accesses:174125 Bytes:1689552 RowHits:142500 RowMisses:8 RowConflicts:31617 BusyCycles:2247194}
bus grants=174125 busy=385319
trace walker walks=9070 ptes=27210 l2=4812
sweep walker walks=1026 ptes=3078 l2=64
marker marks=7984 wbstall=2183 filtered=465
cache stalls=0 sweep-ptw stalls=0
`,
	},
	{
		name: "pipe",
		kind: HWCollector,
		cfg:  func(c *Config) { c.Memory = MemPipe },
		want: `gc0 mark=68494 sweep=248246 marked=3764 freed=29411
gc1 mark=68120 sweep=250844 marked=3764 freed=28383
dram {Accesses:174683 Bytes:1699224 RowHits:0 RowMisses:0 RowConflicts:0 BusyCycles:212614}
bus grants=174683 busy=387086
trace walker walks=9263 ptes=27789 l2=4658
sweep walker walks=1026 ptes=3078 l2=64
marker marks=8449 wbstall=10584 filtered=0
cache stalls=0 sweep-ptw stalls=0
`,
	},
	{
		name: "sw",
		kind: SWCollector,
		cfg:  func(*Config) {},
		want: `gc0 mark=524750 sweep=2076886 marked=3764 freed=29411
gc1 mark=581053 sweep=2083912 marked=3764 freed=28383
cpu instructions=280356 memops=194349
dram {Accesses:109492 Bytes:7007488 RowHits:102099 RowMisses:8 RowConflicts:7385 BusyCycles:0}
`,
	},
}

// goldenRun runs two collections of cell c and renders every simulated
// statistic the pin covers, one fact per line.
func goldenRun(t *testing.T, c goldenCell) (string, *AppRunner) {
	t.Helper()
	cfg := goldenConfig()
	c.cfg(&cfg)
	r, err := NewAppRunner(cfg, goldenSpec(), c.kind, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.bus > 0 {
		r.HW.Bus.MaxShare = c.bus
	}
	r.Validate = true
	if err := r.RunGCs(2); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, g := range r.Res.GCs {
		fmt.Fprintf(&b, "gc%d mark=%d sweep=%d marked=%d freed=%d\n",
			i, g.MarkCycles, g.SweepCycles, g.Marked, g.Freed)
	}
	if r.SW != nil {
		fmt.Fprintf(&b, "cpu instructions=%d memops=%d\n", r.SW.CPU.Instructions, r.SW.CPU.MemOps)
		fmt.Fprintf(&b, "dram %+v\n", r.SW.Sync.(*dram.Sync).Stats())
		return b.String(), r
	}
	hw := r.HW
	fmt.Fprintf(&b, "dram %+v\n", hw.MemStats())
	fmt.Fprintf(&b, "bus grants=%d busy=%d\n", hw.Bus.Grants, hw.Bus.BusyBeats)
	tw, sw := hw.Trace.Walker, hw.Sweep.Walker
	fmt.Fprintf(&b, "trace walker walks=%d ptes=%d l2=%d\n", tw.Walks, tw.PTEFetches, tw.L2Hits)
	fmt.Fprintf(&b, "sweep walker walks=%d ptes=%d l2=%d\n", sw.Walks, sw.PTEFetches, sw.L2Hits)
	m := hw.Trace.Marker
	fmt.Fprintf(&b, "marker marks=%d wbstall=%d filtered=%d\n", m.Marks, m.WritebackStall, m.Filtered)
	fmt.Fprintf(&b, "cache stalls=%d sweep-ptw stalls=%d\n", goldenCache(hw).Stalls, hw.Sweep.PTWCache.Stalls)
	return b.String(), r
}

// goldenCache returns the traversal unit's cache: the shared one or the
// dedicated PTW cache.
func goldenCache(hw *HW) *cache.Event {
	if hw.Trace.Shared != nil {
		return hw.Trace.Shared
	}
	return hw.Trace.PTWCache
}

// TestGoldenSimulatedStats pins the exact simulated statistics of every
// golden cell. The values are the simulator's own output; a host-side
// optimization must leave every one of them unchanged.
func TestGoldenSimulatedStats(t *testing.T) {
	for _, c := range goldenCells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, r := goldenRun(t, c)
			if got != c.want {
				t.Fatalf("simulated statistics changed\ngot:\n%s\nwant:\n%s", got, c.want)
			}
			if r.HW == nil {
				return
			}
			// Each cell must really run the path it is there for.
			hw := r.HW
			switch c.name {
			case "partitioned-port2":
				if hw.Trace.Marker.WritebackStall == 0 {
					t.Error("no marker write-back stall")
				}
			case "shared-port2":
				if hw.Trace.Walker.L2Hits == 0 {
					t.Error("no L2-TLB hit")
				}
				if hw.Trace.Shared.Stalls == 0 {
					t.Error("no shared-cache stall")
				}
				if hw.Trace.Marker.WritebackStall == 0 {
					t.Error("no marker write-back stall")
				}
			case "markbits-throttled":
				if hw.Trace.Marker.Filtered == 0 {
					t.Error("mark-bit cache filtered nothing")
				}
			}
		})
	}
}
