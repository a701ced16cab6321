package telemetry

// Sampler paces the registry's per-tick telemetry: it counts probe ticks
// taken at fixed cycle intervals and, when recording is on, feeds each tick
// to the bounded time-series Recorder — the one per-tick sink behind the
// paper-style occupancy/utilization curves (mark-queue depth, bank states,
// port busy %). It is driven by the simulation engine's probe hook, which
// fires at cycle boundaries between events without scheduling anything, so
// sampling can never perturb simulated results.
type Sampler struct {
	reg *Registry
	// Every is the sampling interval in cycles.
	Every uint64

	ticks int
	// rec, when non-nil, is the bounded time-series recorder fed one tick
	// per sample.
	rec *Recorder
}

// NewSampler returns a sampler over reg with the given interval.
func NewSampler(reg *Registry, every uint64) *Sampler {
	if every == 0 {
		every = 1024
	}
	return &Sampler{reg: reg, Every: every}
}

// Sample takes one probe tick at the given cycle: it counts the tick and
// folds it into the recorder, if any. With recording off it allocates
// nothing.
//
//hwgc:hotpath
func (s *Sampler) Sample(cycle uint64) {
	if s == nil || s.reg == nil {
		return
	}
	s.ticks++
	s.rec.Tick(cycle)
}

// Len returns the number of probe ticks taken.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return s.ticks
}

// enableRecording attaches a bounded time-series recorder (see Recorder);
// each subsequent Sample tick feeds it. Idempotent.
func (s *Sampler) enableRecording(maxPoints int) {
	if s == nil || s.rec != nil {
		return
	}
	s.rec = newRecorder(s.reg, s.Every, maxPoints)
}

// Recorder returns the attached time-series recorder, or nil when recording
// is off.
func (s *Sampler) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}
