package cache

import (
	"hwgc/internal/dram"
	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
	"hwgc/internal/tilelink"
)

// Access is one request into an event-driven cache. Source labels the
// requesting unit (marker, tracer, ptw, markq, sweeper) so the experiment
// for Figure 18a can attribute contention.
type Access struct {
	Addr   uint64
	Size   uint64
	Kind   dram.Kind
	Source string
	Done   func(finish uint64)
}

// Event is the event-driven shared cache from the paper's first traversal
// unit design: all units reach memory through one small cache behind a
// single-ported crossbar (one access serviced per cycle), with a limited
// number of MSHRs for outstanding misses.
//
// The paper found this design barely beats the CPU because page-table-walker
// misses drown out everyone else (Figure 18a); the partitioned design then
// gives the marker and tracer direct interconnect ports.
type Event struct {
	eng    *sim.Engine
	state  *State
	hitLat uint64
	port   *tilelink.Port
	in     *sim.Queue[Access]
	tick   *sim.Ticker

	// hits holds the continuations of hits waiting out hitLat. Every hit
	// completes exactly hitLat cycles after it is serviced, so they fire
	// in service order and hitDone always serves the oldest.
	hits    *sim.Queue[func(uint64)]
	hitDone func()

	// MSHRs: the occupied records, searched by line, and the free ones.
	// Each record's fill callback is bound once.
	mshrs    []*mshr
	freeMSHR []*mshr

	// onSpace is invoked when an input-queue slot frees.
	onSpace func()

	// RequestsBySource counts crossbar requests per unit label.
	RequestsBySource map[string]uint64
	// MissesBySource counts misses per unit label.
	MissesBySource map[string]uint64
	// Stalls counts cycles the crossbar could not service its head
	// access (MSHRs or downstream port full).
	Stalls uint64

	tel     *telemetry.Tracer // nil = tracing disabled (fast path)
	telUnit string            // "cache.<name>", precomputed at attach
}

// mshr is one miss-status holding register: the line being filled and the
// accesses waiting on it.
type mshr struct {
	line    uint64
	start   uint64 // miss issue cycle (trace spans; 0 when tracing is off)
	waiters []Access
	fill    func(finish uint64)
}

// NewEvent returns an event-driven cache of the given size/ways, hit latency
// hitLat, inputQ entries of crossbar queueing, mshrs outstanding misses, and
// a downstream interconnect port.
func NewEvent(eng *sim.Engine, size, ways int, hitLat uint64, inputQ, mshrs int, port *tilelink.Port) *Event {
	c := &Event{
		eng:              eng,
		state:            NewState(size, ways),
		hitLat:           hitLat,
		port:             port,
		in:               sim.NewQueue[Access](inputQ),
		hits:             sim.NewQueue[func(uint64)](0),
		RequestsBySource: make(map[string]uint64),
		MissesBySource:   make(map[string]uint64),
	}
	c.tick = sim.NewTicker(eng, c.step)
	c.hitDone = func() {
		done, _ := c.hits.Pop()
		done(c.eng.Now())
	}
	for i := 0; i < mshrs; i++ {
		c.freeMSHR = append(c.freeMSHR, c.newMSHR())
	}
	port.SetOnSpace(func() { c.tick.Wake() })
	return c
}

// State exposes the tag array.
func (c *Event) State() *State { return c.state }

// Access submits a request. It returns false when the crossbar queue is
// full; callers retry when their own issue ticker runs again.
//
//hwgc:hotpath
func (c *Event) Access(a Access) bool {
	if !c.in.Push(a) {
		return false
	}
	c.RequestsBySource[a.Source]++
	c.tick.Wake()
	return true
}

// Free returns free crossbar queue slots.
func (c *Event) Free() int { return c.in.Free() }

// SetOnSpace registers a callback invoked when an input-queue slot frees.
func (c *Event) SetOnSpace(fn func()) { c.onSpace = fn }

// newMSHR builds a free MSHR record with its fill callback bound once.
func (c *Event) newMSHR() *mshr {
	m := &mshr{}
	m.fill = func(f uint64) { c.fill(m, f) }
	return m
}

// fill completes m's line fill: it frees the MSHR and answers every waiter.
//
//hwgc:hotpath
func (c *Event) fill(m *mshr, f uint64) {
	if c.tel != nil {
		c.tel.Complete1(c.telUnit, "miss-fill", m.start, c.eng.Now(), "line", m.line)
	}
	c.releaseMSHR(m)
	for _, w := range m.waiters {
		if w.Done != nil {
			w.Done(f)
		}
	}
	// Only now may the record be reused: the loop above reads it.
	m.waiters = m.waiters[:0]
	c.freeMSHR = append(c.freeMSHR, m)
	c.tick.Wake()
}

// findMSHR returns the occupied MSHR for line, or nil.
func (c *Event) findMSHR(line uint64) *mshr {
	for _, m := range c.mshrs {
		if m.line == line {
			return m
		}
	}
	return nil
}

// releaseMSHR removes m from the occupied set (order is irrelevant: lookups
// are by line, and lines are unique among occupied records).
func (c *Event) releaseMSHR(m *mshr) {
	for i, o := range c.mshrs {
		if o == m {
			last := len(c.mshrs) - 1
			c.mshrs[i] = c.mshrs[last]
			c.mshrs = c.mshrs[:last]
			return
		}
	}
}

// step services one access per cycle.
//
//hwgc:hotpath
func (c *Event) step() bool {
	a, ok := c.in.Peek()
	if !ok {
		return false
	}
	line := a.Addr / LineSize * LineSize

	// Coalesce into an existing MSHR for the same line.
	if m := c.findMSHR(line); m != nil {
		c.popInput()
		m.waiters = append(m.waiters, a)
		return !c.in.Empty()
	}

	write := a.Kind == dram.Write || a.Kind == dram.AMO
	if !c.state.Contains(line) {
		// Miss path: check resources before committing any state so a
		// stalled access retries cleanly. Conservatively require two
		// port slots (fill + possible dirty write-back).
		if len(c.freeMSHR) == 0 || c.port.Free() < 2 {
			c.Stalls++
			return false
		}
	}
	hit, wb := c.state.Access(line, write)
	if hit {
		c.popInput()
		if a.Done != nil {
			c.hits.Push(a.Done)
			c.eng.After(c.hitLat, c.hitDone)
		}
		return !c.in.Empty()
	}
	c.MissesBySource[a.Source]++
	c.popInput()
	if wb {
		c.port.Issue(dram.Request{Addr: line, Size: LineSize, Kind: dram.Write})
	}
	m := c.freeMSHR[len(c.freeMSHR)-1]
	c.freeMSHR = c.freeMSHR[:len(c.freeMSHR)-1]
	m.line = line
	m.waiters = append(m.waiters, a)
	if c.tel != nil {
		m.start = c.eng.Now()
	}
	c.mshrs = append(c.mshrs, m)
	c.port.Issue(dram.Request{Addr: line, Size: LineSize, Kind: dram.Read, Done: m.fill})
	return !c.in.Empty()
}

func (c *Event) popInput() {
	c.in.Pop()
	if c.onSpace != nil {
		c.onSpace()
	}
}

// OutstandingMisses returns the number of occupied MSHRs.
func (c *Event) OutstandingMisses() int { return len(c.mshrs) }

// AttachTelemetry registers the cache's metrics under cache.<name>.* and
// enables miss-fill trace spans on the unit's track. Per-source counters
// are registered as aggregates (request and miss totals) so sampling stays
// deterministic regardless of map iteration order.
func (c *Event) AttachTelemetry(h *telemetry.Hub, name string) {
	if h == nil {
		return
	}
	c.tel = h.Tracer()
	c.telUnit = "cache." + name
	reg := h.Registry()
	prefix := c.telUnit + "."
	reg.CounterFunc(prefix+"requests", func() uint64 { return sumMap(c.RequestsBySource) })
	reg.CounterFunc(prefix+"misses", func() uint64 { return sumMap(c.MissesBySource) })
	reg.CounterFunc(prefix+"stalls", func() uint64 { return c.Stalls })
	reg.Gauge(prefix+"inq.occupancy", func() float64 { return float64(c.in.Len()) })
	reg.Gauge(prefix+"mshrs", func() float64 { return float64(len(c.mshrs)) })
}

func sumMap(m map[string]uint64) uint64 {
	var s uint64
	for _, v := range m {
		s += v
	}
	return s
}
