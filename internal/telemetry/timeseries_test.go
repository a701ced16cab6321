package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestRecordingOffByDefault: a hub without EnableRecording keeps no series
// and writes no sample rows, no matter how many probe ticks fire; the ticks
// are still counted.
func TestRecordingOffByDefault(t *testing.T) {
	h := NewSyncHub(10)
	c := h.Reg.Counter("work.done")
	for cyc := uint64(10); cyc <= 100; cyc += 10 {
		c.Add(5)
		h.Sampler.Sample(cyc)
	}
	if got := h.RecordedSeries(); len(got) != 0 {
		t.Fatalf("RecordedSeries with recording off = %v, want none", got)
	}
	var buf bytes.Buffer
	if err := h.WriteSamplesJSONL(&buf); err != nil || buf.Len() != 0 || h.SampleCount() != 0 {
		t.Fatalf("recording off wrote %d bytes, SampleCount %d (err %v), want none", buf.Len(), h.SampleCount(), err)
	}
	if h.Sampler.Len() != 10 {
		t.Fatalf("Sampler.Len() = %d, want 10 ticks counted", h.Sampler.Len())
	}
	if v, _ := h.Reg.Value("telemetry.sampler.samples"); v != 10 {
		t.Fatalf("telemetry.sampler.samples = %v, want 10", v)
	}
}

// TestSamplerOffZeroAllocs: with recording off the probe tick only counts,
// so a hub that never records (every hwgc-serve job) costs the engine's
// probe path nothing.
func TestSamplerOffZeroAllocs(t *testing.T) {
	h := NewSyncHub(10)
	g := 0.0
	h.Reg.Gauge("unit.occupancy", func() float64 { return g })
	h.Reg.Counter("unit.ops").Add(1)
	cyc := uint64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		cyc += 10
		h.Sampler.Sample(cyc)
	}); allocs != 0 {
		t.Fatalf("Sample without recording = %.1f allocs/tick, want 0", allocs)
	}
}

// BenchmarkSamplerTickOff measures the probe tick of a hub that never
// records (and doubles as its zero-alloc guard under -benchmem).
func BenchmarkSamplerTickOff(b *testing.B) {
	h := NewSyncHub(10)
	g := 0.0
	h.Reg.Gauge("unit.occupancy", func() float64 { return g })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Sampler.Sample(uint64(10 + 10*i))
	}
}

// TestRecorderGaugeAndCounter checks the two accumulation modes: gauges
// record the window mean, counters the per-cycle rate over the window.
func TestRecorderGaugeAndCounter(t *testing.T) {
	h := NewSyncHub(10)
	h.EnableRecording(0)
	g := 0.0
	h.Reg.Gauge("queue.occupancy", func() float64 { return g })
	c := h.Reg.Counter("bytes.moved")

	// Each tick: gauge 4.0, counter +30 over a 10-cycle window → rate 3/cycle.
	for cyc := uint64(10); cyc <= 30; cyc += 10 {
		g = 4.0
		c.Add(30)
		h.Sampler.Sample(cyc)
	}

	runs := h.RecordedSeries()
	if len(runs) != 1 || runs[0].Run != "main" {
		t.Fatalf("RecordedSeries = %+v, want one run \"main\"", runs)
	}
	byName := map[string]SeriesData{}
	for _, s := range runs[0].Series {
		byName[s.Name] = s
	}
	gs, ok := byName["queue.occupancy"]
	if !ok || len(gs.Points) != 3 {
		t.Fatalf("gauge series = %+v, want 3 points", gs)
	}
	for i, p := range gs.Points {
		if p.Val != 4.0 || p.Cycle != uint64(10*(i+1)) {
			t.Fatalf("gauge point %d = %+v, want {%d 4}", i, p, 10*(i+1))
		}
	}
	// The counter's first window baselines at its current value (a metric is
	// first seen at its first tick), so point 0 reports 0; the rest report
	// the true per-cycle rate 30/10.
	cs := byName["bytes.moved"]
	if len(cs.Points) != 3 || cs.Points[0].Val != 0 {
		t.Fatalf("counter series = %+v, want 3 points with a 0 baseline window", cs.Points)
	}
	for _, p := range cs.Points[1:] {
		if p.Val != 3.0 {
			t.Fatalf("counter point %+v, want per-cycle rate 3", p)
		}
	}
	if gs.Interval != 10 {
		t.Fatalf("Interval = %d, want sampler interval 10", gs.Interval)
	}
}

// TestRecorderDownsampleBound drives a long run through a small recorder and
// checks the fixed-memory contract: the point count never exceeds the bound,
// the stride doubles on overflow, and the retained curve still spans the
// whole run.
func TestRecorderDownsampleBound(t *testing.T) {
	const maxPoints = 16
	h := NewSyncHub(1)
	h.EnableRecording(maxPoints)
	v := 0.0
	h.Reg.Gauge("ramp", func() float64 { return v })

	rec := h.Sampler.Recorder()
	const ticks = 1000
	for cyc := uint64(1); cyc <= ticks; cyc++ {
		v = float64(cyc)
		h.Sampler.Sample(cyc)
		if n := rec.Len("ramp"); n > maxPoints {
			t.Fatalf("at cycle %d: %d retained points, bound %d", cyc, n, maxPoints)
		}
	}

	var ramp SeriesData
	for _, s := range rec.Series() {
		if s.Name == "ramp" {
			ramp = s
		}
	}
	if ramp.Name == "" {
		t.Fatal("ramp series missing")
	}
	pts := ramp.Points
	if len(pts) > maxPoints || len(pts) < maxPoints/2 {
		t.Fatalf("final point count = %d, want within (%d, %d]", len(pts), maxPoints/2, maxPoints)
	}
	// Stride doubled from 1 to a power of two; the interval reflects it.
	if ramp.Interval == 1 || ramp.Interval&(ramp.Interval-1) != 0 {
		t.Fatalf("Interval = %d, want a power of two > 1", ramp.Interval)
	}
	// The last retained point lands on the final emission boundary, so the
	// series spans the run instead of truncating at the first overflow.
	last := pts[len(pts)-1]
	if last.Cycle < ticks-ramp.Interval {
		t.Fatalf("last point at cycle %d; run ended at %d (interval %d)", last.Cycle, ticks, ramp.Interval)
	}
	// Values are window means of a linear ramp: strictly increasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].Val <= pts[i-1].Val {
			t.Fatalf("downsampled ramp not monotonic at %d: %+v", i, pts[i-1:i+1])
		}
	}
}

// TestRecorderLateRegistration: a counter registered mid-run baselines at
// its current value, so its first window reports the true delta rather than
// a fabricated lifetime spike.
func TestRecorderLateRegistration(t *testing.T) {
	h := NewSyncHub(10)
	h.EnableRecording(0)
	c1 := h.Reg.Counter("early")
	c1.Add(100)
	h.Sampler.Sample(10)

	late := h.Reg.Counter("late")
	late.Add(1_000_000) // accumulated before the next tick — not a window delta
	late.Add(0)
	h.Sampler.Sample(20)
	late.Add(50)
	h.Sampler.Sample(30)

	rec := h.Sampler.Recorder()
	var lateSeries SeriesData
	for _, s := range rec.Series() {
		if s.Name == "late" {
			lateSeries = s
		}
	}
	// The registration window baselines at the current value (rate 0, not a
	// million-count spike); the +50 window reports the true 5/cycle.
	if len(lateSeries.Points) != 2 {
		t.Fatalf("late series = %+v, want 2 points", lateSeries.Points)
	}
	if lateSeries.Points[0].Val != 0 {
		t.Fatalf("baseline window rate = %v, want 0 (no fabricated spike)", lateSeries.Points[0].Val)
	}
	if lateSeries.Points[1].Val != 5.0 {
		t.Fatalf("post-baseline rate = %v, want 5", lateSeries.Points[1].Val)
	}
}

// TestRecorderDeterminism: two identical runs record byte-identical series.
func TestRecorderDeterminism(t *testing.T) {
	run := func() []RunSeries {
		h := NewSyncHub(10)
		h.EnableRecording(32)
		g := 0.0
		h.Reg.Gauge("g", func() float64 { return g })
		c := h.Reg.Counter("c")
		for cyc := uint64(10); cyc <= 5000; cyc += 10 {
			g = float64(cyc % 97)
			c.Add(cyc % 13)
			h.Sampler.Sample(cyc)
		}
		return h.RecordedSeries()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs recorded different series")
	}
}

// TestSyncHubRecording: EnableRecording on a hub propagates to
// forked children, and RecordedSeries merges them in (label, seq) order
// under stable run names.
func TestSyncHubRecording(t *testing.T) {
	h := NewSyncHub(10)
	h.EnableRecording(0)

	for _, label := range []string{"beta", "alpha"} {
		child := h.ForRun(label)
		c := child.Reg.Counter("n")
		for cyc := uint64(10); cyc <= 30; cyc += 10 {
			c.Add(10)
			child.Sampler.Sample(cyc)
		}
	}

	runs := h.RecordedSeries()
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2 (main recorded nothing)", len(runs))
	}
	if runs[0].Run != "alpha#0" || runs[1].Run != "beta#0" {
		t.Fatalf("run order = %s, %s; want alpha#0, beta#0", runs[0].Run, runs[1].Run)
	}
	for _, r := range runs {
		found := false
		for _, s := range r.Series {
			if s.Name == "n" && len(s.Points) == 3 {
				found = true
			}
		}
		if !found {
			t.Fatalf("run %s missing series n: %+v", r.Run, r.Series)
		}
	}
}

// TestRecordingFixedMemory: a recording run holds fixed memory however
// long it runs — once warm, ticks allocate nothing, every series stays
// within the point bound, and so does the rendered JSONL.
func TestRecordingFixedMemory(t *testing.T) {
	const maxPoints = 16
	h := NewSyncHub(10)
	h.EnableRecording(maxPoints)
	g := 1.0
	h.Reg.Gauge("g", func() float64 { return g })
	c := h.Reg.Counter("c")
	cyc := uint64(0)
	batch := func() {
		for i := 0; i < 1000; i++ {
			cyc += 10
			c.Add(1)
			h.Sampler.Sample(cyc)
		}
	}
	batch() // warm the metric cache
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("recording = %.1f allocs per 1000 ticks, want 0", allocs)
	}
	if h.Sampler.Len() != 22000 {
		t.Fatalf("Sampler.Len() = %d, want 22000 ticks counted", h.Sampler.Len())
	}
	for _, name := range []string{"g", "c"} {
		if n := h.Sampler.Recorder().Len(name); n == 0 || n > maxPoints {
			t.Fatalf("series %s holds %d points, want 1..%d", name, n, maxPoints)
		}
	}
	if n := h.SampleCount(); n == 0 || n > maxPoints {
		t.Fatalf("SampleCount = %d, want 1..%d", n, maxPoints)
	}
}

// TestWriteSamplesJSONLSyncHub: -metrics-out rows are
// run-tagged, cycle-ordered, bounded by the recorder's point count per run
// even after downsampling, and byte-identical across identical runs.
func TestWriteSamplesJSONLSyncHub(t *testing.T) {
	const maxPoints, ticks = 16, 1000
	run := func() string {
		h := NewSyncHub(10)
		h.EnableRecording(maxPoints)
		for _, label := range []string{"beta", "alpha"} {
			child := h.ForRun(label)
			g := 0.0
			child.Reg.Gauge("q.occupancy", func() float64 { return g })
			c := child.Reg.Counter("q.ops")
			for i := uint64(1); i <= ticks; i++ {
				g = float64(i % 7)
				c.Add(i % 5)
				child.Sampler.Sample(10 * i)
			}
		}
		var buf bytes.Buffer
		if err := h.WriteSamplesJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(buf.String(), "\n"); n != h.SampleCount() {
			t.Fatalf("SampleCount = %d, JSONL has %d rows", h.SampleCount(), n)
		}
		return buf.String()
	}
	out := run()
	if out != run() {
		t.Fatal("identical runs wrote different JSONL")
	}

	var runs []string
	rows := map[string]int{}
	last := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var row struct {
			Run     string             `json:"run"`
			Cycle   uint64             `json:"cycle"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("invalid JSONL row %q: %v", line, err)
		}
		if rows[row.Run] == 0 {
			runs = append(runs, row.Run)
		} else if row.Cycle <= last[row.Run] {
			t.Fatalf("run %s: cycle %d after %d, want increasing", row.Run, row.Cycle, last[row.Run])
		}
		rows[row.Run]++
		last[row.Run] = row.Cycle
		if _, ok := row.Metrics["q.occupancy"]; !ok {
			t.Fatalf("row %q missing q.occupancy", line)
		}
	}
	if !reflect.DeepEqual(runs, []string{"alpha#0", "beta#0"}) {
		t.Fatalf("runs = %v, want [alpha#0 beta#0]", runs)
	}
	for r, n := range rows {
		if n > maxPoints || n < maxPoints/2 {
			t.Fatalf("run %s wrote %d rows, want within [%d, %d]", r, n, maxPoints/2, maxPoints)
		}
		if last[r] < 10*ticks-10*ticks/maxPoints*2 {
			t.Fatalf("run %s ends at cycle %d, want near %d (rows span the run)", r, last[r], 10*ticks)
		}
	}
}

// TestRecorderTickZeroAllocs is the acceptance guard: once the metric cache
// is warm, a probe tick must allocate nothing — recording is meant to ride
// the engine hot path.
func TestRecorderTickZeroAllocs(t *testing.T) {
	h := NewSyncHub(10)
	h.EnableRecording(64)
	g := 0.0
	h.Reg.Gauge("unit.occupancy", func() float64 { return g })
	c := h.Reg.Counter("unit.ops")
	h.Reg.CounterFunc("unit.derived", func() uint64 { return c.Value() * 2 })

	cyc := uint64(0)
	tick := func() {
		cyc += 10
		g = float64(cyc % 31)
		c.Add(3)
		h.Sampler.Sample(cyc)
	}
	tick() // warm the caches (first tick refreshes metric tables)

	// Spans emission ticks and in-place downsampling, not just accumulation.
	if allocs := testing.AllocsPerRun(1000, tick); allocs != 0 {
		t.Fatalf("Sample with recording = %.1f allocs/tick, want 0", allocs)
	}
}

// BenchmarkRecorderTick measures the recording probe tick (and doubles as
// the zero-alloc guard under -benchmem).
func BenchmarkRecorderTick(b *testing.B) {
	h := NewSyncHub(10)
	h.EnableRecording(DefaultRecorderPoints)
	g := 0.0
	h.Reg.Gauge("unit.occupancy", func() float64 { return g })
	c := h.Reg.Counter("unit.ops")
	h.Sampler.Sample(10)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = float64(i)
		c.Add(1)
		h.Sampler.Sample(uint64(20 + 10*i))
	}
}
