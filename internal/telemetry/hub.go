package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Hub bundles the three telemetry surfaces a run attaches to its simulated
// units: the metrics registry, the cycle sampler over it, and (optionally)
// the structured event tracer. A nil *Hub disables everything.
//
// A hub comes in two flavours:
//
//   - A plain hub (NewHub) is single-threaded: one simulation at a time
//     records into it, and the hot paths pay no synchronization.
//   - A synchronized hub (NewSyncHub) may be installed as the process
//     default while simulations run concurrently. It never shares mutable
//     telemetry state between runs; instead every run forks a private child
//     hub via ForRun, and the aggregate view (Snapshot, WriteSummary,
//     WriteSamplesJSONL, WriteTraceChrome) folds the children back
//     together. Recording therefore stays as cheap as the plain hub.
type Hub struct {
	Reg     *Registry
	Sampler *Sampler
	Trace   *Tracer

	// sync is non-nil for synchronized hubs (NewSyncHub).
	sync *syncState
}

// syncState is the bookkeeping of a synchronized hub: the forked per-run
// children and the settings new children inherit.
type syncState struct {
	sampleEvery uint64

	mu           sync.Mutex
	trace        bool
	record       bool // children record bounded time series
	recordPoints int
	perLabel     map[string]int
	children     []syncChild
}

// syncChild is one forked per-run hub. seq numbers children that share a
// label in fork order, so merged sampler/trace output has stable names.
type syncChild struct {
	label string
	seq   int
	hub   *Hub
}

// name returns the child's unique run name ("xalan/hw#2").
func (c syncChild) name() string { return c.label + "#" + strconv.Itoa(c.seq) }

// NewHub returns a plain (single-threaded) hub with a registry and a
// sampler at the given interval (0 = default 1024 cycles). Event tracing is
// off until EnableTrace.
func NewHub(sampleEvery uint64) *Hub {
	reg := NewRegistry()
	s := NewSampler(reg, sampleEvery)
	// Sampling volume is part of every summary, so a run that recorded no
	// series (probe never hooked, interval too coarse) is visible at a
	// glance rather than silently empty.
	reg.CounterFunc("telemetry.sampler.samples", func() uint64 { return uint64(s.Len()) })
	return &Hub{Reg: reg, Sampler: s}
}

// NewSyncHub returns a synchronized hub: safe to install as the process
// default while simulations run concurrently. Its own registry (Reg) is for
// coordinator-level metrics — counters are atomic, and gauge/histogram
// users must bring their own locking (see the service package). Simulation
// runs must attach through ForRun.
func NewSyncHub(sampleEvery uint64) *Hub {
	h := NewHub(sampleEvery)
	h.sync = &syncState{sampleEvery: sampleEvery, perLabel: make(map[string]int)}
	return h
}

// Synchronized reports whether the hub tolerates concurrent runs (it was
// created by NewSyncHub). False for nil and plain hubs.
func (h *Hub) Synchronized() bool { return h != nil && h.sync != nil }

// EnableTrace turns on structured event tracing and returns the tracer. On
// a synchronized hub, children forked afterwards record traces too.
func (h *Hub) EnableTrace() *Tracer {
	if h.Trace == nil {
		h.Trace = NewTracer()
		// Truncation must be visible in summaries, not just buried in the
		// trace file's otherData: a capped tracer silently dropping spans
		// would otherwise look like a quiet run.
		t := h.Trace
		h.Reg.CounterFunc("telemetry.trace.events", func() uint64 { return uint64(len(t.Events())) })
		h.Reg.CounterFunc("telemetry.trace.dropped", t.Dropped)
	}
	if h.sync != nil {
		h.sync.mu.Lock()
		h.sync.trace = true
		h.sync.mu.Unlock()
	}
	return h.Trace
}

// EnableRecording turns on bounded time-series recording (off by default):
// every probe tick folds into at most maxPoints retained points per metric
// (0 = DefaultRecorderPoints). On a synchronized hub, children forked
// afterwards record too. Idempotent.
func (h *Hub) EnableRecording(maxPoints int) {
	if h == nil {
		return
	}
	h.Sampler.enableRecording(maxPoints)
	if h.sync != nil {
		h.sync.mu.Lock()
		h.sync.record = true
		h.sync.recordPoints = maxPoints
		h.sync.mu.Unlock()
	}
}

// RecordedSeries returns every run's recorded time series. A plain hub
// yields at most one entry with an empty run name; a synchronized hub
// yields its own series as "main" plus one entry per child, in (label, fork
// sequence) order. Runs and series that recorded nothing are omitted. Call
// after workers join, like Snapshot.
func (h *Hub) RecordedSeries() []RunSeries {
	if h == nil {
		return nil
	}
	if h.sync == nil {
		if sd := h.Sampler.Recorder().Series(); len(sd) > 0 {
			return []RunSeries{{Series: sd}}
		}
		return nil
	}
	var out []RunSeries
	if sd := h.Sampler.Recorder().Series(); len(sd) > 0 {
		out = append(out, RunSeries{Run: "main", Series: sd})
	}
	for _, c := range h.sortedChildren() {
		if sd := c.hub.Sampler.Recorder().Series(); len(sd) > 0 {
			out = append(out, RunSeries{Run: c.name(), Series: sd})
		}
	}
	return out
}

// ForRun returns the hub one simulation run should attach to. For nil and
// plain hubs that is the hub itself (the single-threaded contract is the
// caller's problem, as before). For a synchronized hub it forks a private
// child — own registry, sampler, and tracer — so the run's hot paths stay
// unsynchronized no matter how many runs record concurrently. The label
// groups the run in merged sampler/trace output; children sharing a label
// are numbered in fork order.
func (h *Hub) ForRun(label string) *Hub {
	if h == nil || h.sync == nil {
		return h
	}
	s := h.sync
	s.mu.Lock()
	defer s.mu.Unlock()
	c := NewHub(s.sampleEvery)
	if s.trace {
		c.EnableTrace()
	}
	if s.record {
		c.Sampler.enableRecording(s.recordPoints)
	}
	s.children = append(s.children, syncChild{label: label, seq: s.perLabel[label], hub: c})
	s.perLabel[label]++
	return c
}

// sortedChildren snapshots the child list ordered by (label, seq) — the
// canonical order for merged output. Within a label, seq follows fork
// order, which equals submission order on a serial run.
func (h *Hub) sortedChildren() []syncChild {
	h.sync.mu.Lock()
	out := append([]syncChild(nil), h.sync.children...)
	h.sync.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].label != out[j].label {
			return out[i].label < out[j].label
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// Snapshot returns the hub's aggregate registry. For nil and plain hubs it
// is the registry itself. For a synchronized hub it is a fresh registry
// folding the hub's own metrics and every forked child: counters, rates,
// and histograms are summed, and counter-func/gauge callbacks are evaluated
// and summed. Summation is commutative, so the aggregate does not depend on
// run completion order — a parallel fleet's summary is byte-identical to a
// serial one. Do not call while runs are still recording into children
// (callers snapshot after their workers join).
func (h *Hub) Snapshot() *Registry {
	if h == nil || h.sync == nil {
		if h == nil {
			return nil
		}
		return h.Reg
	}
	out := NewRegistry()
	fold(out, h.Reg)
	for _, c := range h.sortedChildren() {
		fold(out, c.hub.Reg)
	}
	return out
}

// fold accumulates src's metrics into dst (see Snapshot for the rules).
func fold(dst, src *Registry) {
	if src == nil {
		return
	}
	for name, m := range src.metrics {
		switch m.kind {
		case KindCounter:
			dst.Counter(name).Add(m.counter.Value())
		case KindRate:
			dst.Rate(name).Add(m.rate.Value())
		case KindHistogram:
			dst.Histogram(name).Merge(m.hist)
		case KindCounterFunc:
			var v uint64
			if m.cfn != nil {
				v = m.cfn()
			}
			if prev, ok := dst.metrics[name]; ok && prev.cfn != nil {
				v += prev.cfn()
			}
			total := v
			dst.CounterFunc(name, func() uint64 { return total })
		case KindGauge:
			var v float64
			if m.gauge != nil {
				v = m.gauge()
			}
			if prev, ok := dst.metrics[name]; ok && prev.gauge != nil {
				v += prev.gauge()
			}
			total := v
			dst.Gauge(name, func() float64 { return total })
		}
	}
}

// WriteSummary writes the end-of-run metric summary (the aggregate view for
// a synchronized hub). Nil-safe.
func (h *Hub) WriteSummary(w io.Writer) error { return h.Snapshot().WriteSummary(w) }

// WriteSamplesJSONL writes every run's recorded time series (see
// EnableRecording) as JSONL, one row per retained cycle:
//
//	{"run":"xalan/hw#0","cycle":2048,"metrics":{"dram.bank0.openrow":17,...}}
//
// Values are the recorder's: window means for gauges, per-cycle rates for
// counter kinds. Rows are cycle-ordered with sorted metric names and
// deterministic float formatting, so identical runs write identical bytes.
// A run whose metrics all registered before its first tick (every
// simulated system) shares one cycle grid, so it writes at most the
// recorder's point bound of rows. A plain hub's rows carry no "run" field;
// a synchronized hub tags every row with its run name, runs ordered as in
// RecordedSeries. At fleet width 1 that order is canonical; at higher
// widths runs sharing a label may permute (their contents stay
// deterministic). Writes nothing when recording is off.
func (h *Hub) WriteSamplesJSONL(w io.Writer) error {
	_, err := h.writeSamples(w)
	return err
}

// SampleCount returns the number of rows WriteSamplesJSONL writes.
func (h *Hub) SampleCount() int {
	n, _ := h.writeSamples(io.Discard)
	return n
}

// writeSamples is WriteSamplesJSONL returning the rows written. Each run's
// series are merged by cycle: a row holds every series with a point at
// that cycle, in the series' sorted name order.
func (h *Hub) writeSamples(w io.Writer) (int, error) {
	rows := 0
	for _, r := range h.RecordedSeries() {
		prefix := ""
		if r.Run != "" {
			prefix = `"run":` + strconv.Quote(r.Run) + `,`
		}
		next := make([]int, len(r.Series)) // per-series cursor
		for {
			cycle, ok := uint64(0), false
			for i, s := range r.Series {
				if next[i] < len(s.Points) && (!ok || s.Points[next[i]].Cycle < cycle) {
					cycle, ok = s.Points[next[i]].Cycle, true
				}
			}
			if !ok {
				break
			}
			if _, err := fmt.Fprintf(w, `{%s"cycle":%d,"metrics":{`, prefix, cycle); err != nil {
				return rows, err
			}
			sep := ""
			for i, s := range r.Series {
				if next[i] < len(s.Points) && s.Points[next[i]].Cycle == cycle {
					if _, err := fmt.Fprintf(w, "%s%s:%s", sep, strconv.Quote(s.Name), fnum(s.Points[next[i]].Val)); err != nil {
						return rows, err
					}
					sep = ","
					next[i]++
				}
			}
			if _, err := io.WriteString(w, "}}\n"); err != nil {
				return rows, err
			}
			rows++
		}
	}
	return rows, nil
}

// WriteTraceChrome writes the recorded trace events in Chrome trace_event
// format. A plain hub's output is unchanged from Tracer.WriteChrome; a
// synchronized hub writes each run as its own process (pid), named after
// the run, in (label, fork sequence) order.
func (h *Hub) WriteTraceChrome(w io.Writer) error {
	if h == nil {
		return nil
	}
	if h.sync == nil {
		return h.Trace.WriteChrome(w)
	}
	var parts []tracePart
	if h.Trace != nil && len(h.Trace.Events()) > 0 {
		parts = append(parts, tracePart{name: "main", t: h.Trace})
	}
	for _, c := range h.sortedChildren() {
		if c.hub.Trace != nil {
			parts = append(parts, tracePart{name: c.name(), t: c.hub.Trace})
		}
	}
	return writeChromeParts(w, parts)
}

// TraceEventCount returns the total number of recorded trace events across
// the hub and (for a synchronized hub) all forked children.
func (h *Hub) TraceEventCount() int {
	if h == nil {
		return 0
	}
	n := len(h.Trace.Events())
	if h.sync != nil {
		for _, c := range h.sortedChildren() {
			n += len(c.hub.Trace.Events())
		}
	}
	return n
}

// Tracer returns the hub's event tracer (nil when the hub is nil or tracing
// is disabled) — safe to call on a nil hub, so units can attach with
// h.Tracer() unconditionally.
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.Trace
}

// Registry returns the hub's registry (nil when the hub is nil).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.Reg
}

// def is the process-wide default hub, picked up by core.NewAppRunner so
// whole-program tools (hwgc-bench, hwgc-serve) can instrument every system
// they build without plumbing a hub through each experiment. The pointer is
// stored atomically, so installing/reading the default is race-free. A
// plain hub's surfaces are NOT — while one is installed, only one
// simulation may run at a time, and the experiment fleet enforces that by
// collapsing its worker width to 1 (see experiments.Width). A synchronized
// hub (NewSyncHub) lifts that restriction: runners fork private children
// via ForRun, so the fleet keeps its full width.
var def atomic.Pointer[Hub]

// SetDefault installs (or, with nil, clears) the process default hub.
func SetDefault(h *Hub) { def.Store(h) }

// Default returns the process default hub, or nil.
func Default() *Hub { return def.Load() }
