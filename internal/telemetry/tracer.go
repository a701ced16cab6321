package telemetry

import (
	"fmt"
	"io"
	"iter"
	"strconv"
)

// Arg is one key/value annotation on a trace event. Values are unsigned
// integers (addresses, sizes, counts) — everything the simulator wants to
// attach is one of those, and avoiding interface{} keeps recording
// allocation-free.
type Arg struct {
	Key string
	Val uint64
}

// maxArgs bounds per-event annotations so events embed their args inline
// (no per-event slice allocation).
const maxArgs = 3

// Event is one recorded trace event: a span ('X', Chrome "complete" event)
// or an instant ('i'). Cycles stand in for timestamps; at the paper's 1 GHz
// clock one cycle is one nanosecond.
type Event struct {
	Unit  string // track (Chrome tid), e.g. "tracer.marker"
	Name  string
	Phase byte   // 'X' (span) or 'i' (instant)
	Start uint64 // cycle
	Dur   uint64 // span length in cycles ('X' only)
	Args  [maxArgs]Arg
	NArgs uint8
}

// DefaultMaxEvents caps the event buffer. Runs longer than the cap keep
// the earliest events and count the rest in Dropped, so memory stays
// bounded and output deterministic.
const DefaultMaxEvents = 1 << 20

// Tracer records structured per-unit events. A nil *Tracer is the disabled
// fast path: every recording method returns immediately and allocates
// nothing, so units call them unconditionally.
//
// Tracks (Chrome thread IDs) are assigned in first-emission order, which is
// deterministic because the simulation is.
type Tracer struct {
	// MaxEvents overrides DefaultMaxEvents when > 0.
	MaxEvents int

	// blocks holds the events in recording order, eventBlock to a block
	// (the last one partly filled). Growing by whole blocks never copies
	// or strands an old buffer, so a trace holds about what it recorded,
	// up to the cap.
	blocks  [][]Event
	n       int // events recorded
	dropped uint64
	tracks  map[string]int
	order   []string
}

// eventBlock is the number of events the buffer grows by (544 KiB).
const eventBlock = 1 << 12

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{tracks: make(map[string]int)}
}

func (t *Tracer) cap() int {
	if t.MaxEvents > 0 {
		return t.MaxEvents
	}
	return DefaultMaxEvents
}

func (t *Tracer) push(e Event) {
	limit := t.cap()
	if t.n >= limit {
		t.dropped++
		return
	}
	if t.n%eventBlock == 0 {
		t.blocks = append(t.blocks, make([]Event, 0, min(eventBlock, limit-t.n)))
	}
	if _, ok := t.tracks[e.Unit]; !ok {
		t.tracks[e.Unit] = len(t.order)
		t.order = append(t.order, e.Unit)
	}
	last := &t.blocks[len(t.blocks)-1]
	*last = append(*last, e)
	t.n++
}

// Complete records a span covering [start, end] cycles on the unit's track.
func (t *Tracer) Complete(unit, name string, start, end uint64) {
	if t == nil {
		return
	}
	t.push(Event{Unit: unit, Name: name, Phase: 'X', Start: start, Dur: end - start})
}

// Complete1 records a span with one annotation.
func (t *Tracer) Complete1(unit, name string, start, end uint64, k string, v uint64) {
	if t == nil {
		return
	}
	e := Event{Unit: unit, Name: name, Phase: 'X', Start: start, Dur: end - start, NArgs: 1}
	e.Args[0] = Arg{k, v}
	t.push(e)
}

// Complete2 records a span with two annotations.
func (t *Tracer) Complete2(unit, name string, start, end uint64, k1 string, v1 uint64, k2 string, v2 uint64) {
	if t == nil {
		return
	}
	e := Event{Unit: unit, Name: name, Phase: 'X', Start: start, Dur: end - start, NArgs: 2}
	e.Args[0] = Arg{k1, v1}
	e.Args[1] = Arg{k2, v2}
	t.push(e)
}

// Complete3 records a span with three annotations.
func (t *Tracer) Complete3(unit, name string, start, end uint64, k1 string, v1 uint64, k2 string, v2 uint64, k3 string, v3 uint64) {
	if t == nil {
		return
	}
	e := Event{Unit: unit, Name: name, Phase: 'X', Start: start, Dur: end - start, NArgs: 3}
	e.Args[0] = Arg{k1, v1}
	e.Args[1] = Arg{k2, v2}
	e.Args[2] = Arg{k3, v3}
	t.push(e)
}

// Instant records a point event at the given cycle.
func (t *Tracer) Instant(unit, name string, cycle uint64) {
	if t == nil {
		return
	}
	t.push(Event{Unit: unit, Name: name, Phase: 'i', Start: cycle})
}

// Instant1 records a point event with one annotation.
func (t *Tracer) Instant1(unit, name string, cycle uint64, k string, v uint64) {
	if t == nil {
		return
	}
	e := Event{Unit: unit, Name: name, Phase: 'i', Start: cycle, NArgs: 1}
	e.Args[0] = Arg{k, v}
	t.push(e)
}

// Instant2 records a point event with two annotations.
func (t *Tracer) Instant2(unit, name string, cycle uint64, k1 string, v1 uint64, k2 string, v2 uint64) {
	if t == nil {
		return
	}
	e := Event{Unit: unit, Name: name, Phase: 'i', Start: cycle, NArgs: 2}
	e.Args[0] = Arg{k1, v1}
	e.Args[1] = Arg{k2, v2}
	t.push(e)
}

// Events returns a copy of the recorded events, in recording order
// (inspection/tests).
func (t *Tracer) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, 0, t.n)
	for e := range t.all() {
		out = append(out, *e)
	}
	return out
}

// all yields every recorded event in recording order.
func (t *Tracer) all() iter.Seq[*Event] {
	return func(yield func(*Event) bool) {
		for _, b := range t.blocks {
			for i := range b {
				if !yield(&b[i]) {
					return
				}
			}
		}
	}
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns the number of events discarded after the buffer filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Units returns the distinct track names in first-emission order.
func (t *Tracer) Units() []string {
	if t == nil {
		return nil
	}
	return t.order
}

// writeArgs writes a Chrome-style args object for e.
func writeArgs(w io.Writer, e *Event) error {
	if _, err := io.WriteString(w, `{`); err != nil {
		return err
	}
	for i := 0; i < int(e.NArgs); i++ {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s%s:%d", sep, strconv.Quote(e.Args[i].Key), e.Args[i].Val); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, `}`)
	return err
}

// WriteChrome writes the trace in Chrome trace_event JSON object format.
// The file opens directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing: every unit is a named thread, spans are complete ('X')
// events and instants are 'i' events; ts/dur are in simulation cycles
// (displayed as microseconds by the viewers — the scale is arbitrary but
// consistent).
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		return nil
	}
	return writeChromeParts(w, []tracePart{{t: t}})
}

// tracePart is one tracer in a merged Chrome trace; a non-empty name labels
// its process in the viewer (one per hub run).
type tracePart struct {
	name string
	t    *Tracer
}

// writeChromeParts writes one Chrome trace file containing every part as
// its own process (pid 1..n). A single unnamed part produces exactly the
// classic single-trace output.
func writeChromeParts(w io.Writer, parts []tracePart) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	writeSep := func() error {
		if first {
			first = false
			return nil
		}
		_, err := io.WriteString(w, ",\n")
		return err
	}
	var dropped uint64
	for i, p := range parts {
		if p.t == nil {
			continue
		}
		dropped += p.t.dropped
		if err := p.t.writeChromeBody(w, i+1, p.name, writeSep); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"droppedEvents\":%d}}\n", dropped)
	return err
}

// writeChromeBody writes t's metadata and events as process pid into an
// already-open traceEvents array.
func (t *Tracer) writeChromeBody(w io.Writer, pid int, procName string, writeSep func() error) error {
	if procName != "" {
		if err := writeSep(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w,
			`{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`,
			pid, strconv.Quote(procName)); err != nil {
			return err
		}
	}
	// Thread-name metadata, one per track, in track order.
	for tid, unit := range t.order {
		if err := writeSep(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w,
			`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			pid, tid, strconv.Quote(unit)); err != nil {
			return err
		}
	}
	for e := range t.all() {
		if err := writeSep(); err != nil {
			return err
		}
		tid := t.tracks[e.Unit]
		switch e.Phase {
		case 'X':
			if _, err := fmt.Fprintf(w,
				`{"name":%s,"cat":%s,"ph":"X","pid":%d,"tid":%d,"ts":%d,"dur":%d,"args":`,
				strconv.Quote(e.Name), strconv.Quote(e.Unit), pid, tid, e.Start, e.Dur); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w,
				`{"name":%s,"cat":%s,"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"args":`,
				strconv.Quote(e.Name), strconv.Quote(e.Unit), pid, tid, e.Start); err != nil {
				return err
			}
		}
		if err := writeArgs(w, e); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "}"); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes one JSON object per event: machine-readable structured
// event log for ad-hoc analysis (jq, pandas).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	for e := range t.all() {
		if _, err := fmt.Fprintf(w, `{"unit":%s,"name":%s,"ph":%s,"cycle":%d`,
			strconv.Quote(e.Unit), strconv.Quote(e.Name), strconv.Quote(string(e.Phase)), e.Start); err != nil {
			return err
		}
		if e.Phase == 'X' {
			if _, err := fmt.Fprintf(w, `,"dur":%d`, e.Dur); err != nil {
				return err
			}
		}
		if e.NArgs > 0 {
			if _, err := io.WriteString(w, `,"args":`); err != nil {
				return err
			}
			if err := writeArgs(w, e); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}\n"); err != nil {
			return err
		}
	}
	return nil
}
