package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// origin is taken as early as the process allows; spans count from it.
var origin = time.Now()

// Child modes. Every child is a fresh process, so each repeat starts from
// the same cold state: an empty snapshot.Default() image store, an empty
// result cache, and no default telemetry hub.
const (
	modeRepeat    = "repeat"    // set up, then one timed pass with output checks
	modeSetup     = "setup"     // set up only (extra set-up samples)
	modeReference = "reference" // serve-mix: direct Runner.Run of every distinct job, one at a time
)

// repeatResult is what one child reports to the parent on standard output.
type repeatResult struct {
	SetupS   float64 // host CPU seconds the process used before its first timed call
	CPUS     float64 // host CPU seconds of the timed pass, output checks excluded
	WallS    float64 // wall-clock seconds of the same
	Cycles   float64 // simulated cycles over the timed pass
	AllocB   float64 // host bytes allocated by the timed pass
	PeakRSSB float64 // peak resident set of the process
	Ops      []opResult
	Digest   string // hash of every simulated statistic and report byte
	// Layers holds per-layer counts and ratios; the parent derives self
	// times and allocations from Spans when the repeat is traced.
	Layers map[string]float64 `json:",omitempty"`
	Spans  []Span             `json:",omitempty"`
	// Reports maps a serve-mix job ID to the hash of its report bytes.
	Reports map[int]string `json:",omitempty"`
}

// opResult is one operation: a cell or a job.
type opResult struct {
	MS  float64 // wall-clock milliseconds; for a job, submit to final response
	Err string  `json:",omitempty"`
}

// runChild executes one child process: it reads the plan from standard
// input and writes its repeatResult to standard output.
func runChild(mode string, traced bool) error {
	var p Plan
	if err := json.NewDecoder(os.Stdin).Decode(&p); err != nil {
		return fmt.Errorf("reading plan: %w", err)
	}
	var rec *recorder
	if traced {
		// Concurrent serve-mix clients share one process-wide allocation
		// counter, so per-span allocation is recorded only for serial work.
		rec = newRecorder(origin, p.Workload != "serve-mix" || mode == modeReference)
	}
	var res repeatResult
	var err error
	switch p.Workload {
	case "unit-design", "cpu-baseline":
		res, err = runCells(p, mode, rec)
	case "serve-mix":
		res, err = runServe(p, mode, rec)
	default:
		err = fmt.Errorf("unknown workload %q", p.Workload)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		res.Spans = rec.spans
	}
	res.PeakRSSB = peakRSS()
	return json.NewEncoder(os.Stdout).Encode(res)
}
