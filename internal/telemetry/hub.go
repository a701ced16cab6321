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
// A hub may be installed as the process default while simulations run
// concurrently. It never shares mutable telemetry state between runs:
// every run forks a private child hub via ForRun, and the aggregate view
// (Snapshot, WriteSummary, WriteSamplesJSONL, WriteTraceChrome) folds the
// children back together, so recording pays no synchronization. Units
// attached to the hub itself (one run at a time) report as run "main".
type Hub struct {
	Reg     *Registry
	Sampler *Sampler
	Trace   *Tracer

	// Settings children inherit, and the forked children.
	mu           sync.Mutex
	trace        bool
	record       bool // children record bounded time series
	recordPoints int
	perLabel     map[string]int
	children     []child
}

// child is one forked per-run hub. seq numbers children that share a label
// in fork order, so merged sampler/trace output has stable names.
type child struct {
	label string
	seq   int
	hub   *Hub
}

// name returns the child's unique run name ("xalan/hw#2").
func (c child) name() string { return c.label + "#" + strconv.Itoa(c.seq) }

// NewSyncHub returns a hub with a registry and a sampler at the given
// interval (0 = default 1024 cycles). Event tracing is off until
// EnableTrace. Its own registry (Reg) also serves coordinator-level
// metrics — counters are atomic, and gauge/histogram users must bring
// their own locking (see the service package). Concurrent simulation runs
// must attach through ForRun.
func NewSyncHub(sampleEvery uint64) *Hub {
	reg := NewRegistry()
	s := NewSampler(reg, sampleEvery)
	// Sampling volume is part of every summary, so a run that recorded no
	// series (probe never hooked, interval too coarse) is visible at a
	// glance rather than silently empty.
	reg.CounterFunc("telemetry.sampler.samples", func() uint64 { return uint64(s.Len()) })
	return &Hub{Reg: reg, Sampler: s, perLabel: make(map[string]int)}
}

// EnableTrace turns on structured event tracing and returns the tracer.
// Children forked afterwards record traces too.
func (h *Hub) EnableTrace() *Tracer {
	if h.Trace == nil {
		h.Trace = NewTracer()
		// Truncation must be visible in summaries, not just buried in the
		// trace file's otherData: a capped tracer silently dropping spans
		// would otherwise look like a quiet run.
		t := h.Trace
		h.Reg.CounterFunc("telemetry.trace.events", func() uint64 { return uint64(t.Len()) })
		h.Reg.CounterFunc("telemetry.trace.dropped", t.Dropped)
	}
	h.mu.Lock()
	h.trace = true
	h.mu.Unlock()
	return h.Trace
}

// EnableRecording turns on bounded time-series recording (off by default):
// every probe tick folds into at most maxPoints retained points per metric
// (0 = DefaultRecorderPoints). Children forked afterwards record too.
// Idempotent.
func (h *Hub) EnableRecording(maxPoints int) {
	if h == nil {
		return
	}
	h.Sampler.enableRecording(maxPoints)
	h.mu.Lock()
	h.record = true
	h.recordPoints = maxPoints
	h.mu.Unlock()
}

// RecordedSeries returns every run's recorded time series: the hub's own
// series as "main", then one entry per child, in (label, fork sequence)
// order. Runs and series that recorded nothing are omitted. Call after
// workers join, like Snapshot.
func (h *Hub) RecordedSeries() []RunSeries {
	if h == nil {
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

// ForRun forks the private child hub one simulation run should attach to
// (nil for a nil hub): its own registry, sampler, and tracer, so the run's
// hot paths stay unsynchronized no matter how many runs record
// concurrently. The label groups the run in merged sampler/trace output;
// children sharing a label are numbered in fork order.
func (h *Hub) ForRun(label string) *Hub {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	c := NewSyncHub(h.Sampler.Every)
	if h.trace {
		c.EnableTrace()
	}
	if h.record {
		c.Sampler.enableRecording(h.recordPoints)
	}
	h.children = append(h.children, child{label: label, seq: h.perLabel[label], hub: c})
	h.perLabel[label]++
	return c
}

// sortedChildren snapshots the child list ordered by (label, seq) — the
// canonical order for merged output. Within a label, seq follows fork
// order, which equals submission order on a serial run.
func (h *Hub) sortedChildren() []child {
	h.mu.Lock()
	out := append([]child(nil), h.children...)
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].label != out[j].label {
			return out[i].label < out[j].label
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// Snapshot returns the hub's aggregate registry (nil for a nil hub): a
// fresh registry folding the hub's own metrics and every forked child.
// Counters, rates, and histograms are summed, and counter-func/gauge
// callbacks are evaluated and summed. Summation is commutative, so the
// aggregate does not depend on run completion order — a parallel fleet's
// summary is byte-identical to a serial one. Do not call while runs are
// still recording into children (callers snapshot after their workers
// join).
func (h *Hub) Snapshot() *Registry {
	if h == nil {
		return nil
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

// WriteSummary writes the end-of-run metric summary of the aggregate view.
// Nil-safe.
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
// recorder's point bound of rows. Every row carries its run name, runs
// ordered as in RecordedSeries. At fleet width 1 that order is canonical;
// at higher widths runs sharing a label may permute (their contents stay
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
		prefix := `"run":` + strconv.Quote(r.Run) + `,`
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
// format, each run as its own process (pid) named after the run: "main"
// first, then the children in (label, fork sequence) order.
func (h *Hub) WriteTraceChrome(w io.Writer) error {
	if h == nil {
		return nil
	}
	var parts []tracePart
	if h.Trace.Len() > 0 {
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
// the hub and all forked children.
func (h *Hub) TraceEventCount() int {
	if h == nil {
		return 0
	}
	n := h.Trace.Len()
	for _, c := range h.sortedChildren() {
		n += c.hub.Trace.Len()
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
// a whole-program tool (hwgc-bench) can instrument every system it builds
// without plumbing a hub through each experiment. The pointer is stored
// atomically, so installing/reading the default is race-free, and runners
// fork private children via ForRun, so the fleet keeps its full width.
// Every fork lives as long as the hub: a long-lived process that runs
// unbounded work (hwgc-serve) installs no default.
var def atomic.Pointer[Hub]

// SetDefault installs (or, with nil, clears) the process default hub.
func SetDefault(h *Hub) { def.Store(h) }

// Default returns the process default hub, or nil.
func Default() *Hub { return def.Load() }
