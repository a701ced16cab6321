package trace

import (
	"hwgc/internal/cache"
	"hwgc/internal/dram"
	"hwgc/internal/heap"
	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
	"hwgc/internal/vmem"
)

// Span is a contiguous run of reference slots to be fetched by the tracer:
// the reference section of a newly marked object, or a slice of the root
// region.
type Span struct {
	VA    uint64
	Bytes uint64
}

// Marker is the traversal unit's mark pipeline (Figure 13). Instead of a
// cache with MSHRs it manages its own request slots — every request is an
// identical, unordered 8-byte status-word read, so a slot only needs a tag
// and an address. For each response it decides: already marked -> free the
// slot (write-back elided); newly marked -> issue the write-back and, if
// the object has references, enqueue its reference section to the tracer.
type Marker struct {
	eng    *sim.Engine
	h      *heap.Heap
	mq     *MarkQueue
	tq     *sim.Queue[Span]
	tr     *vmem.Translator
	issuer memIssuer
	mbc    *cache.MarkBits // optional filter; nil = disabled

	slots    int
	inflight int
	pendingT bool // a translation miss is outstanding

	// Request slots: each carries one mark from translation to response,
	// with its callbacks bound once. free holds the idle ones; cur is the
	// slot whose status address is being translated (at most one).
	free         []*markSlot
	cur          *markSlot
	onTranslated func(pa uint64, ok bool) // bound once

	// wbRetry holds the addresses of write-backs refused by a full port.
	// Each retries exactly one cycle later, so retries fire in FIFO order
	// and retryWriteback always serves the oldest.
	wbRetry        *sim.Queue[uint64]
	retryWriteback func()

	tick *sim.Ticker

	onTracerWork func() // wakes the tracer when tq gains an entry

	// Stats.
	Marks          uint64 // status reads issued
	NewlyMarked    uint64
	AlreadyMarked  uint64 // write-back elided
	Filtered       uint64 // elided entirely by the mark-bit cache
	EnqueuedSpans  uint64
	WritebackStall uint64
	IssueRetries   uint64 // status reads refused by a full issuer, retried next cycle

	// Probes, when non-nil, histograms status-word accesses per object
	// (Figure 21a). It counts every mark-queue pop for an object,
	// including ones the mark-bit cache filters.
	Probes map[uint64]int

	tel  *telemetry.Tracer    // nil = tracing disabled (fast path)
	hLat *telemetry.Histogram // mark issue-to-completion latency
}

// markSlot is one marker request slot (Figure 13): the object's reference
// and status-word address, the pre-mark status word and the issue cycle,
// plus the response and retry callbacks bound when the slot is built.
type markSlot struct {
	ref   uint64
	pa    uint64
	old   uint64 // status word before the mark
	start uint64 // issue cycle
	done  func(uint64)
	retry func()
}

// NewMarker builds a marker with the given number of request slots.
func NewMarker(eng *sim.Engine, h *heap.Heap, mq *MarkQueue, tq *sim.Queue[Span],
	tr *vmem.Translator, issuer memIssuer, slots int, mbc *cache.MarkBits) *Marker {
	m := &Marker{eng: eng, h: h, mq: mq, tq: tq, tr: tr, issuer: issuer, slots: slots, mbc: mbc,
		wbRetry: sim.NewQueue[uint64](0)}
	m.tick = sim.NewTicker(eng, m.step)
	for i := 0; i < slots; i++ {
		s := &markSlot{}
		s.done = func(uint64) { m.complete(s) }
		s.retry = func() { m.issue(s) }
		m.free = append(m.free, s)
	}
	m.onTranslated = func(pa uint64, ok bool) {
		m.pendingT = false
		if !ok {
			panic("trace: marker page fault")
		}
		m.issueMark(m.cur, pa)
		m.tick.Wake()
	}
	m.retryWriteback = func() {
		pa, _ := m.wbRetry.Pop()
		m.writeback(pa)
	}
	return m
}

// Wake schedules the marker (queues wire this to their notify hooks).
func (m *Marker) Wake() { m.tick.Wake() }

// SetOnTracerWork registers the tracer wake callback.
func (m *Marker) SetOnTracerWork(fn func()) { m.onTracerWork = fn }

// Idle reports whether the marker has no work in flight.
func (m *Marker) Idle() bool { return m.inflight == 0 && !m.pendingT }

// step issues at most one mark per cycle.
//
//hwgc:hotpath
func (m *Marker) step() bool {
	if m.inflight >= m.slots || m.pendingT {
		return false
	}
	// Back-pressure: every in-flight mark may produce one tracer entry.
	if m.tq.Free() <= m.inflight {
		return false
	}
	if m.issuer.Free() == 0 {
		return false
	}
	ref, ok := m.mq.Pop()
	if !ok {
		return false
	}
	if m.Probes != nil {
		m.Probes[ref]++
	}
	if m.mbc != nil && m.mbc.Probe(ref) {
		m.Filtered++
		return true
	}
	statusVA := m.h.StatusAddr(ref)
	m.inflight++
	s := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	s.ref = ref
	m.cur = s
	if !m.tr.Translate(statusVA, m.onTranslated) {
		panic("trace: translator rejected while not busy")
	}
	if m.tr.Busy() {
		m.pendingT = true
	}
	return true
}

// issueMark sends the status read; the functional fetch-or happens at issue
// so that overlapping marks of the same object stay idempotent.
//
//hwgc:hotpath
func (m *Marker) issueMark(s *markSlot, pa uint64) {
	s.pa = pa
	s.old = m.h.MarkAMO(m.h.StatusAddr(s.ref))
	s.start = m.eng.Now()
	m.issue(s)
}

// issue tries the status read; a full port retries it next cycle (the AMO
// is already applied, and response ordering is unaffected).
func (m *Marker) issue(s *markSlot) {
	if !m.issuer.TryIssue(s.pa, 8, dram.Read, s.done) {
		m.IssueRetries++
		m.eng.After(1, s.retry)
		return
	}
	m.Marks++
}

// complete handles a status-read response: a mark of an already-marked
// object just frees its slot; a new mark writes the status word back and
// hands the object's reference section to the tracer.
//
//hwgc:hotpath
func (m *Marker) complete(s *markSlot) {
	ref, old, start := s.ref, s.old, s.start
	m.hLat.Observe(m.eng.Now() - start)
	if m.h.IsMarkedStatus(old) {
		m.AlreadyMarked++
		if m.tel != nil {
			m.tel.Complete1("tracer.marker", "mark-dup", start, m.eng.Now(), "ref", ref)
		}
		m.freeSlot(s)
		return
	}
	m.NewlyMarked++
	if m.tel != nil {
		m.tel.Complete1("tracer.marker", "mark-new", start, m.eng.Now(), "ref", ref)
	}
	m.writeback(s.pa)
	if n := heap.NumRefs(old); n > 0 {
		va, bytes := m.h.RefSpan(ref, n)
		if !m.tq.Push(Span{VA: va, Bytes: bytes}) {
			// Cannot happen: step reserves a tq slot per in-flight
			// mark.
			panic("trace: tracer queue overflow despite reservation")
		}
		m.EnqueuedSpans++
		if m.onTracerWork != nil {
			m.onTracerWork()
		}
	}
	m.freeSlot(s)
}

// writeback stores the updated status word (fire-and-forget).
func (m *Marker) writeback(pa uint64) {
	if !m.issuer.TryIssue(pa, 8, dram.Write, nil) {
		m.WritebackStall++
		m.wbRetry.Push(pa)
		m.eng.After(1, m.retryWriteback)
	}
}

func (m *Marker) freeSlot(s *markSlot) {
	m.free = append(m.free, s)
	m.inflight--
	m.tick.Wake()
}
