package sim

// Ticker drives a pipelined unit that does a bounded amount of work per
// cycle (e.g. "issue at most one memory request"). The unit supplies a step
// function; the ticker runs it once per cycle for as long as it reports that
// more work remains, then goes idle until some other component calls Wake
// (for example when an input queue receives an element or an output queue
// drains).
//
// This avoids per-cycle polling of idle units while preserving cycle-level
// issue limits.
type Ticker struct {
	e         *Engine
	step      func() bool
	run       func() // bound once; scheduling it never allocates
	scheduled bool
}

// NewTicker registers step with the engine. step returns true if the unit
// may be able to make further progress on the next cycle.
func NewTicker(e *Engine, step func() bool) *Ticker {
	t := &Ticker{e: e, step: step}
	t.run = func() {
		t.scheduled = false
		if t.step() {
			t.Wake()
		}
	}
	return t
}

// Wake schedules the unit to step on the next cycle if it is not already
// scheduled. Calling Wake from within the unit's own step is allowed.
//
//hwgc:hotpath
func (t *Ticker) Wake() {
	if t.scheduled {
		return
	}
	t.scheduled = true
	t.e.After(1, t.run)
}
