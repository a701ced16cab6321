// Package concurrent implements the paper's Section IV-D proposal as an
// executable model: using the traversal unit in a pause-free collector.
//
// The paper's prototype is stop-the-world; concurrent operation is a design
// the paper sketches, built from two barriers:
//
//   - Write barrier: when the mutator overwrites a reference during
//     tracing, the old value is written into the same memory region used to
//     communicate roots; the traversal unit treats everything in that
//     region as additional mark-queue input. This closes the hidden-object
//     race (paper Figure 3).
//   - Read barrier (for a relocating collector): the reclamation unit owns
//     a physical address range with no DRAM behind it; relocated pages'
//     "shadow" mappings return per-object forwarding deltas through the
//     coherence protocol, so a stale reference is fixed up with an add —
//     no trap, no pipeline flush. This closes the stale-reference race
//     (paper Figure 4).
//
// The model is functional (the races really occur when the barriers are
// disabled) with a simple cost model for the barrier variants the paper
// discusses (Section III-B and IV-E): software check, page-fault trap,
// coherence-based, and the REFLOAD instruction fission.
package concurrent

import (
	"fmt"

	"hwgc/internal/heap"
	"hwgc/internal/rts"
	"hwgc/internal/telemetry"
)

// Mutator wraps heap mutations with the concurrent-GC barriers. All
// mutator reference reads/writes must go through it while a concurrent
// trace is active.
type Mutator struct {
	sys *rts.System

	// WriteBarrier enables logging of overwritten references.
	WriteBarrier bool
	// tracing is true while a concurrent mark is in progress.
	tracing bool

	// barrierLog holds overwritten references awaiting the collector
	// (the paper appends them to the root region; we keep the mirror
	// and also write them through the root space when tracing).
	barrierLog []heap.Ref

	// WriteBarrierHits counts logged references.
	WriteBarrierHits uint64
}

// NewMutator returns a mutator for sys.
func NewMutator(sys *rts.System) *Mutator {
	return &Mutator{sys: sys, WriteBarrier: true}
}

// WriteRef overwrites obj's i-th reference field with newRef, logging the
// old value when the write barrier is armed during tracing.
func (m *Mutator) WriteRef(obj heap.Ref, i int, newRef heap.Ref) {
	old := m.sys.Heap.RefAt(obj, i)
	if m.WriteBarrier && m.tracing && old != 0 {
		m.barrierLog = append(m.barrierLog, old)
		m.WriteBarrierHits++
	}
	m.sys.Heap.SetRefAt(obj, i, newRef)
}

// ReadRef loads obj's i-th reference field.
func (m *Mutator) ReadRef(obj heap.Ref, i int) heap.Ref {
	return m.sys.Heap.RefAt(obj, i)
}

// Collector is an incremental concurrent mark built on the same traversal
// semantics as the hardware unit: it processes a bounded number of objects
// per slice while the mutator runs between slices, and drains the write
// barrier log into its frontier.
type Collector struct {
	sys *rts.System
	mut *Mutator

	frontier []heap.Ref
	active   bool

	// Marked counts objects marked in the current trace.
	Marked uint64

	tel    *telemetry.Tracer // nil = tracing disabled (fast path)
	slices uint64            // completed Step calls; the model has no cycle
	// clock, so slice index is the trace timestamp.
}

// NewCollector returns a concurrent collector bound to a mutator.
func NewCollector(sys *rts.System, mut *Mutator) *Collector {
	return &Collector{sys: sys, mut: mut}
}

// Start begins a concurrent trace: flips the mark sense, snapshots the
// roots, and arms the write barrier.
func (c *Collector) Start() {
	c.sys.Heap.FlipSense()
	c.frontier = c.frontier[:0]
	c.Marked = 0
	for _, r := range c.sys.Roots.Mirror() {
		c.frontier = append(c.frontier, r)
	}
	c.active = true
	c.mut.tracing = true
}

// AttachTelemetry registers the concurrent collector's metrics under
// concurrent.* and enables per-slice instant events. The model is
// slice-driven, not cycle-driven, so the slice index stands in for the
// timestamp.
func (c *Collector) AttachTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	c.tel = h.Tracer()
	reg := h.Registry()
	reg.CounterFunc("concurrent.marked", func() uint64 { return c.Marked })
	reg.CounterFunc("concurrent.barrierhits", func() uint64 { return c.mut.WriteBarrierHits })
	reg.Gauge("concurrent.frontier", func() float64 { return float64(len(c.frontier)) })
}

// Step marks up to n objects from the frontier, first absorbing any
// barrier-logged references. It returns true while the trace is live.
func (c *Collector) Step(n int) bool {
	if !c.active {
		return false
	}
	c.drainBarrier()
	h := c.sys.Heap
	for i := 0; i < n; i++ {
		if len(c.frontier) == 0 {
			break
		}
		obj := c.frontier[0]
		c.frontier = c.frontier[1:]
		old := h.MarkAMO(h.StatusAddr(obj))
		if h.IsMarkedStatus(old) {
			continue
		}
		c.Marked++
		refs := heap.NumRefs(old)
		for j := 0; j < refs; j++ {
			if t := h.RefAt(obj, j); t != 0 {
				c.frontier = append(c.frontier, t)
			}
		}
	}
	c.slices++
	if c.tel != nil {
		c.tel.Instant2("concurrent", "slice", c.slices,
			"marked", c.Marked, "frontier", uint64(len(c.frontier)))
	}
	if len(c.frontier) == 0 {
		// Termination: re-check the barrier log; the trace only ends
		// when both are empty.
		c.drainBarrier()
		if len(c.frontier) == 0 {
			c.finish()
			return false
		}
	}
	return true
}

func (c *Collector) drainBarrier() {
	for _, r := range c.mut.barrierLog {
		c.frontier = append(c.frontier, r)
	}
	c.mut.barrierLog = c.mut.barrierLog[:0]
}

// finish ends the trace. Objects allocated during the trace were allocated
// marked (allocation colour = current sense), so they survive.
func (c *Collector) finish() {
	c.active = false
	c.mut.tracing = false
}

// CheckNoLostObjects verifies the concurrent-marking safety invariant after
// a trace: every object currently reachable is marked. Without the write
// barrier, the hidden-object race (paper Figure 3) violates this.
func (c *Collector) CheckNoLostObjects() error {
	for r := range c.sys.Reachable() {
		if !c.sys.Heap.IsMarked(r) {
			return fmt.Errorf("concurrent: reachable object 0x%x unmarked after trace (lost object)", r)
		}
	}
	return nil
}
