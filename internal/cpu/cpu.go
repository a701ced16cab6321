// Package cpu models the baseline processor: an in-order Rocket-like core
// with blocking L1/L2 caches and a TLB, evaluated trace-driven.
//
// A blocking in-order core has at most one outstanding miss, so timing can
// be accumulated sequentially and exactly: every memory access advances a
// local clock by its true latency through the hierarchy, and non-memory
// instructions advance it at one instruction per cycle. This is the
// property the paper exploits in reverse — the CPU's lack of memory-level
// parallelism is why the traversal unit beats it.
package cpu

import (
	"hwgc/internal/cache"
	"hwgc/internal/dram"
	"hwgc/internal/vmem"
)

// Config describes the core and its cache hierarchy (defaults from the
// paper's Table I).
type Config struct {
	L1Bytes  int
	L1Ways   int
	L1HitLat uint64
	L2Bytes  int
	L2Ways   int
	L2HitLat uint64

	TLBEntries int

	// MispredictPenalty is charged for hard-to-predict branches (the
	// mark-test branch in the traversal loop, Section IV).
	MispredictPenalty uint64
}

// DefaultConfig returns the Rocket configuration from Table I.
func DefaultConfig() Config {
	return Config{
		L1Bytes:           16 << 10,
		L1Ways:            4,
		L1HitLat:          2,
		L2Bytes:           256 << 10,
		L2Ways:            8,
		L2HitLat:          20,
		TLBEntries:        32,
		MispredictPenalty: 3,
	}
}

// CPU is a trace-driven in-order core.
type CPU struct {
	cfg Config
	now uint64

	L1  *cache.Sync
	L2  *cache.Sync
	TLB *vmem.SyncTranslator

	// Instructions counts retired non-memory instructions, MemOps memory
	// operations, Mispredicts charged branch penalties.
	Instructions uint64
	MemOps       uint64
	Mispredicts  uint64

	// Cycle probe (SetProbe): fires at each crossed multiple of probeEvery
	// as the local clock advances, mirroring the event engine's probe so
	// software-collector runs get sampled telemetry too. probe == nil is
	// the disabled fast path — one nil check per clock advance.
	probeEvery uint64
	probeNext  uint64
	probe      func(cycle uint64)
}

// New builds a core whose cache hierarchy bottoms out at memory (the
// synchronous DDR3 model or the ideal pipe). Page-table walks on TLB misses
// go through the L1 data cache, as in Rocket.
func New(cfg Config, pt *vmem.PageTable, memory dram.SyncMemory) *CPU {
	c := &CPU{cfg: cfg}
	c.L2 = cache.NewSync(cfg.L2Bytes, cfg.L2Ways, cfg.L2HitLat, memory)
	c.L1 = cache.NewSync(cfg.L1Bytes, cfg.L1Ways, cfg.L1HitLat, c.L2)
	c.TLB = vmem.NewSyncTranslator(vmem.NewTLB(cfg.TLBEntries), pt, c.L1)
	return c
}

// Now returns the core's local cycle count.
func (c *CPU) Now() uint64 { return c.now }

// SetProbe installs fn to fire at every crossed multiple of every cycles as
// the core's clock advances (0 = default 1024). Like the engine probe, it
// observes timing without participating in it: the callback must not touch
// the core. A nil fn removes the probe.
func (c *CPU) SetProbe(every uint64, fn func(cycle uint64)) {
	if every == 0 {
		every = 1024
	}
	c.probeEvery = every
	c.probe = fn
	c.probeNext = (c.now/every + 1) * every
}

// tick fires the probe for each interval boundary the clock crossed.
func (c *CPU) tick() {
	for c.now >= c.probeNext {
		c.probe(c.probeNext)
		c.probeNext += c.probeEvery
	}
}

// Compute retires n single-cycle instructions.
func (c *CPU) Compute(n int) {
	c.now += uint64(n)
	c.Instructions += uint64(n)
	if c.probe != nil {
		c.tick()
	}
}

// Mispredict charges one branch-misprediction penalty.
func (c *CPU) Mispredict() {
	c.now += c.cfg.MispredictPenalty
	c.Mispredicts++
	if c.probe != nil {
		c.tick()
	}
}

// Access performs one memory operation at virtual address va, advancing the
// clock to its completion. The address is translated through the TLB (a
// miss walks the page table through the L1). Unmapped addresses panic: the
// collectors only touch mapped regions.
func (c *CPU) Access(va uint64, size uint64, kind dram.Kind) {
	c.MemOps++
	pa, t, ok := c.TLB.Translate(c.now, va)
	if !ok {
		panic("cpu: access to unmapped address")
	}
	c.now = c.L1.Access(t, pa, size, kind)
	if c.probe != nil {
		c.tick()
	}
}

// AccessPhys performs a memory operation on an already-physical address
// (no translation), e.g. the driver touching the spill region.
func (c *CPU) AccessPhys(pa uint64, size uint64, kind dram.Kind) {
	c.MemOps++
	c.now = c.L1.Access(c.now, pa, size, kind)
	if c.probe != nil {
		c.tick()
	}
}
