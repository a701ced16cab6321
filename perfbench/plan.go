package main

import (
	"fmt"
	"slices"

	"hwgc/internal/experiments"
	"hwgc/internal/workload"
)

// A Plan is one workload's generated input: everything a repeat runs, made
// from the benchmark seed alone. The parent process builds it and hands it
// to every child on standard input, so the program under test only ever
// sees the generated cells, options and jobs, never the seed.
type Plan struct {
	Workload string

	// Cell workloads (unit-design, cpu-baseline).
	HeapBytes uint64 `json:",omitempty"`
	GCs       int    `json:",omitempty"`
	Cells     []Cell `json:",omitempty"`
	// MarkCheck is the cell an untraced repeat runs again through the
	// split layer calls, to check its marks; -1 for none.
	MarkCheck int

	// serve-mix.
	Clients int   `json:",omitempty"`
	Jobs    []Job `json:",omitempty"`
}

// Cell is one simulation cell: a workload image run under one collector
// configuration for Plan.GCs collections.
type Cell struct {
	ID        int
	Spec      workload.Spec
	Seed      uint64 // image seed: the heap graph and mutator RNG
	HW        bool   // GC unit (core.HWCollector) or the CPU baseline
	Sweepers  int    `json:",omitempty"`
	MarkQueue int    `json:",omitempty"`
}

// Job is one serve-mix submission. Client is the closed-loop client that
// sends it; RepeatOf, when not -1, names an earlier job of the same client
// with identical experiment and options, so the result cache must answer it.
type Job struct {
	ID         int
	Client     int
	Experiment string
	Options    experiments.Options
	RepeatOf   int
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"unit-design", "cpu-baseline", "serve-mix"}

// newPlan generates the named workload's input from seed.
func newPlan(name string, seed uint64, clients int) (Plan, error) {
	p := Plan{Workload: name}
	switch name {
	case "unit-design":
		// One spec keeps a pass near two seconds, so a run holds three
		// repeats and the benchmark's round fits its time budget.
		p.HeapBytes, p.GCs = 4<<20, 2
		spec, _ := workload.ByName("avrora")
		spec = quickScale(spec)
		img := mix(seed, 10)
		for _, sweepers := range []int{1, 4} {
			for _, mq := range []int{256, 16384} {
				p.Cells = append(p.Cells, Cell{ID: len(p.Cells), Spec: spec, Seed: img,
					HW: true, Sweepers: sweepers, MarkQueue: mq})
			}
		}
		p.MarkCheck = int(mix(seed, 4) % uint64(len(p.Cells)))
	case "cpu-baseline":
		p.HeapBytes, p.GCs, p.MarkCheck = 4<<20, 3, -1
		for i, spec := range workload.DaCapo() {
			p.Cells = append(p.Cells, Cell{ID: i, Spec: quickScale(spec), Seed: mix(seed, uint64(20+i))})
		}
	case "serve-mix":
		p.Clients = clients
		p.Jobs = serveJobs(seed, clients)
	default:
		return p, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return p, nil
}

// quickScale applies the experiment fleet's quick-scale reduction (live set
// /6, roots /3, hot set /2).
func quickScale(spec workload.Spec) workload.Spec {
	spec.LiveObjects /= 6
	spec.Roots /= 3
	if spec.HotObjects > 16 {
		spec.HotObjects /= 2
	}
	return spec
}

// serve-mix jobs are all serveExperiment, the experiment that simulates
// fastest at the jobs' scale, so a run holds dozens of them; one kind keeps
// the latency percentiles inside one population instead of on the boundary
// between kinds of different length.
const (
	serveExperiment        = "abl-layout"
	serveDistinctPerClient = 3
	serveRepeatsPerClient  = 1
)

// serveJobs gives every client the same sequence: serveDistinctPerClient
// distinct jobs and serveRepeatsPerClient exact repeats of its own earlier
// jobs. The seed picks every distinct job's simulation seed and which job
// each repeat resubmits and where. With the same sequence, closed-loop
// clients stay in step, and a pass's wall time does not depend on how the
// seed dealt the jobs. A repeat follows the job it resubmits on the same
// client, so it is a cache hit by construction.
func serveJobs(seed uint64, clients int) []Job {
	r := newRand(mix(seed, 3))
	// pattern is the per-client sequence; a repeat's RepeatOf is the index
	// of the job it resubmits.
	pattern := make([]Job, serveDistinctPerClient)
	for i := range pattern {
		pattern[i] = Job{Experiment: serveExperiment, RepeatOf: -1}
	}
	for k := 0; k < serveRepeatsPerClient; k++ {
		from := r.intn(len(pattern))
		for pattern[from].RepeatOf >= 0 {
			from = r.intn(len(pattern))
		}
		at := from + 1 + r.intn(len(pattern)-from)
		for i := range pattern {
			if pattern[i].RepeatOf >= at {
				pattern[i].RepeatOf++
			}
		}
		rep := pattern[from]
		rep.RepeatOf = from
		pattern = slices.Insert(pattern, at, rep)
	}
	var jobs []Job
	for c := 0; c < clients; c++ {
		base := len(jobs)
		for i, j := range pattern {
			j.ID, j.Client = base+i, c
			if j.RepeatOf < 0 {
				j.Options = experiments.Options{GCs: 1, Quick: true, Shrink: 8, Seed: r.next()}
			} else {
				j.Options = jobs[base+j.RepeatOf].Options
				j.RepeatOf += base
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// mix derives an independent 64-bit seed from the benchmark seed and a
// salt (splitmix64 finalizer).
func mix(seed, salt uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a small deterministic generator for plan construction.
type rng struct{ s uint64 }

func newRand(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s, 0)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
