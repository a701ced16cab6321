package vmem

import (
	"hwgc/internal/cache"
	"hwgc/internal/dram"
	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
	"hwgc/internal/tilelink"
)

// Walker is the GC unit's blocking page-table walker. TLB misses from all
// of the unit's translators funnel here and are served one at a time — the
// serialization the paper identifies as a bottleneck ("future work should
// introduce a non-blocking TLB").
//
// PTE fetches go through either a small dedicated cache (the 8 KB PTW cache
// of the partitioned design) or a direct interconnect port (the shared-cache
// design routes them through the shared cache instead).
type Walker struct {
	eng   *sim.Engine
	pt    *PageTable
	cache *cache.Event
	port  *tilelink.Port
	l2    *TLB

	queue *sim.Queue[walkReq]
	busy  bool

	// Walks counts completed walks, PTEFetches individual PTE reads,
	// Faults unmapped translations, L2Hits walks satisfied by the shared
	// second-level TLB.
	Walks      uint64
	PTEFetches uint64
	Faults     uint64
	L2Hits     uint64

	tel     *telemetry.Tracer // nil = tracing disabled (fast path)
	telUnit string            // "<owner>.walker", precomputed at attach
}

type walkReq struct {
	va    uint64
	start uint64 // request cycle (trace spans; 0 when tracing is off)
	done  func(pa uint64, pageBits int, ok bool)
}

// NewWalker returns a walker reading page tables rooted in pt. Exactly one
// of ptwCache and port must be non-nil. l2 may be nil (no shared L2 TLB).
func NewWalker(eng *sim.Engine, pt *PageTable, ptwCache *cache.Event, port *tilelink.Port, l2 *TLB) *Walker {
	if (ptwCache == nil) == (port == nil) {
		panic("vmem: walker needs exactly one of cache or port")
	}
	return &Walker{eng: eng, pt: pt, cache: ptwCache, port: port, l2: l2,
		queue: sim.NewQueue[walkReq](0)}
}

// Walk translates va, invoking done when the translation (or fault)
// resolves. Requests are served in order, one at a time.
func (w *Walker) Walk(va uint64, done func(pa uint64, pageBits int, ok bool)) {
	// Shared L2 TLB probe happens before occupying the walker.
	if w.l2 != nil {
		if _, ok := w.l2.Lookup(va); ok {
			w.L2Hits++
			pa, bits, _, valid := w.pt.Walk(va)
			fin := done
			w.eng.After(2, func() { fin(pa, bits, valid) })
			return
		}
	}
	var start uint64
	if w.tel != nil {
		start = w.eng.Now()
	}
	w.queue.Push(walkReq{va: va, start: start, done: done})
	w.kick()
}

func (w *Walker) kick() {
	if w.busy {
		return
	}
	req, ok := w.queue.Pop()
	if !ok {
		return
	}
	w.busy = true
	pa, bits, ptes, valid := w.pt.Walk(req.va)
	w.fetchPTE(req, ptes, 0, pa, bits, valid)
}

// fetchPTE issues the i-th PTE read; when the last one returns, the walk
// completes.
func (w *Walker) fetchPTE(req walkReq, ptes []uint64, i int, pa uint64, bits int, valid bool) {
	if i >= len(ptes) {
		w.finish(req, pa, bits, valid)
		return
	}
	w.PTEFetches++
	next := func(uint64) { w.fetchPTE(req, ptes, i+1, pa, bits, valid) }
	if w.cache != nil {
		if !w.cache.Access(cache.Access{Addr: ptes[i], Size: 8, Kind: dram.Read, Source: "ptw", Done: next}) {
			w.PTEFetches--
			w.eng.After(1, func() { w.fetchPTEretry(req, ptes, i, pa, bits, valid) })
		}
		return
	}
	if !w.port.Issue(dram.Request{Addr: ptes[i], Size: 8, Kind: dram.Read, Done: next}) {
		w.eng.After(1, func() { w.fetchPTEretry(req, ptes, i, pa, bits, valid) })
	}
}

func (w *Walker) fetchPTEretry(req walkReq, ptes []uint64, i int, pa uint64, bits int, valid bool) {
	w.fetchPTE(req, ptes, i, pa, bits, valid)
}

func (w *Walker) finish(req walkReq, pa uint64, bits int, valid bool) {
	w.Walks++
	if !valid {
		w.Faults++
	} else if w.l2 != nil {
		w.l2.Insert(req.va, pa, bits)
	}
	if w.tel != nil {
		w.tel.Complete1(w.telUnit, "walk", req.start, w.eng.Now(), "va", req.va)
	}
	w.busy = false
	req.done(pa, bits, valid)
	w.kick()
}

// AttachTelemetry registers the walker's metrics under <owner>.walker.*
// (owner distinguishes the traversal unit's walker from the reclamation
// unit's) and enables per-walk trace spans covering request to completion,
// queueing included.
func (w *Walker) AttachTelemetry(h *telemetry.Hub, owner string) {
	if h == nil {
		return
	}
	w.tel = h.Tracer()
	w.telUnit = owner + ".walker"
	reg := h.Registry()
	prefix := w.telUnit + "."
	reg.CounterFunc(prefix+"walks", func() uint64 { return w.Walks })
	reg.CounterFunc(prefix+"ptefetches", func() uint64 { return w.PTEFetches })
	reg.CounterFunc(prefix+"faults", func() uint64 { return w.Faults })
	reg.CounterFunc(prefix+"l2hits", func() uint64 { return w.L2Hits })
	reg.Gauge(prefix+"queue.occupancy", func() float64 { return float64(w.queue.Len()) })
}

// Translator is a per-unit L1 TLB front end over the shared walker. It is
// blocking: while a miss is outstanding the unit cannot translate further
// addresses, mirroring the paper's single-walk-at-a-time TLBs.
type Translator struct {
	eng    *sim.Engine
	tlb    *TLB
	walker *Walker
	busy   bool
}

// NewTranslator returns a translator with its own TLB over walker.
func NewTranslator(eng *sim.Engine, tlb *TLB, walker *Walker) *Translator {
	return &Translator{eng: eng, tlb: tlb, walker: walker}
}

// TLB exposes the translator's TLB (stats, flush).
func (tr *Translator) TLB() *TLB { return tr.tlb }

// Translate resolves va. On a TLB hit, done runs synchronously (the lookup
// is folded into the requesting pipeline's issue stage) and Translate
// returns true. On a miss, the walk is started and done runs later; further
// Translate calls return false until it completes.
func (tr *Translator) Translate(va uint64, done func(pa uint64, ok bool)) bool {
	if tr.busy {
		return false
	}
	if pa, ok := tr.tlb.Lookup(va); ok {
		done(pa, true)
		return true
	}
	tr.busy = true
	tr.walker.Walk(va, func(pa uint64, bits int, ok bool) {
		if ok {
			tr.tlb.Insert(va, pa, bits)
		}
		tr.busy = false
		done(pa, ok)
	})
	return true
}

// Busy reports whether a miss is outstanding.
func (tr *Translator) Busy() bool { return tr.busy }

// SyncTranslator is the CPU-side TLB + walker: misses walk the page table
// synchronously through the given memory level (the L1 data cache in
// Rocket), advancing the clock.
type SyncTranslator struct {
	tlb  *TLB
	pt   *PageTable
	next dram.SyncMemory

	// Faults counts unmapped translations.
	Faults uint64
}

// NewSyncTranslator returns a CPU translator.
func NewSyncTranslator(tlb *TLB, pt *PageTable, next dram.SyncMemory) *SyncTranslator {
	return &SyncTranslator{tlb: tlb, pt: pt, next: next}
}

// TLB exposes the CPU TLB.
func (st *SyncTranslator) TLB() *TLB { return st.tlb }

// Translate resolves va at cycle now, returning the physical address and
// the cycle at which the translation is available.
func (st *SyncTranslator) Translate(now uint64, va uint64) (pa uint64, finish uint64, ok bool) {
	if pa, hit := st.tlb.Lookup(va); hit {
		return pa, now, true
	}
	pa, bits, ptes, valid := st.pt.Walk(va)
	t := now
	for _, pte := range ptes {
		t = st.next.Access(t, pte, 8, dram.Read)
	}
	if !valid {
		st.Faults++
		return 0, t, false
	}
	st.tlb.Insert(va, pa, bits)
	return pa, t, true
}
