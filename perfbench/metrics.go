package main

import (
	"fmt"
	"strings"
)

const mb = 1 << 20

// endToEnd computes the metrics a user of the simulator sees, each the
// median over the run's untraced repeats. Host time is CPU time, user and
// system over all threads: on a shared VM the hypervisor steals a varying
// share of wall-clock time, which CPU time leaves out (see README.md).
func endToEnd(runs []childRun, setups []float64) []metricValue {
	var cpu, rate, alloc, rss []float64
	for _, r := range runs {
		if r.err != nil || r.res.CPUS <= 0 {
			continue
		}
		cpu = append(cpu, r.res.CPUS)
		rate = append(rate, r.res.Cycles/1e6/r.res.CPUS)
		alloc = append(alloc, r.res.AllocB/mb)
		rss = append(rss, r.res.PeakRSSB/mb)
	}
	return []metricValue{
		{Name: "cpu_s", Value: median(cpu), Unit: "s"},
		{Name: "setup_s", Value: median(setups), Unit: "s", Note: fmt.Sprintf("  (CPU time, median of %d set-ups)", len(setups))},
		{Name: "sim_mcycles_per_s", Value: median(rate), Unit: "Mcycles/s", Note: "  (per CPU second)"},
		{Name: "alloc_mb", Value: median(alloc), Unit: "MB"},
		{Name: "peak_rss_mb", Value: median(rss), Unit: "MB"},
	}
}

// wallClock computes the wall-clock metrics over the untraced repeats. On
// every workload a "job" is one operation: a cell or a served job.
// job_p50_ms is the median of each repeat's median job latency: a repeat's
// cells differ in size, and the median of all cells pooled would fall on
// the edge between two sizes, where it reads the slowest of one and the
// fastest of the other.
func wallClock(runs []childRun) []metricValue {
	var wall, jobs, p50s, lat []float64
	for _, r := range runs {
		if r.err != nil || r.res.WallS <= 0 {
			continue
		}
		wall = append(wall, r.res.WallS)
		jobs = append(jobs, float64(len(r.res.Ops))/r.res.WallS)
		var one []float64
		for _, op := range r.res.Ops {
			one = append(one, op.MS)
		}
		p50s = append(p50s, median(one))
		lat = append(lat, one...)
	}
	t := tailOf(lat)
	return []metricValue{
		{Name: "wall_s", Value: median(wall), Unit: "s", Note: fmt.Sprintf("  (median of %d untraced repeats)", len(wall))},
		{Name: "jobs_per_s", Value: median(jobs), Unit: "1/s"},
		{Name: "job_p50_ms", Value: median(p50s), Unit: "ms", Note: fmt.Sprintf("  (median of %d repeats' medians, n=%d)", len(p50s), len(lat))},
		{Name: "job_tail_ms", Value: t.Value, Unit: "ms", Note: fmt.Sprintf("  (p%.1f of n=%d)", t.Percentile, t.N)},
	}
}

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct{ Name, Unit string }

// layerMetrics lists every per-layer metric in BENCHMARK.json order. Each
// traced run reports all of them; a layer a workload does not exercise
// reads 0 there.
func layerMetrics() []layerMetric {
	var ms []layerMetric
	for _, m := range wallClock(nil) {
		ms = append(ms, layerMetric{m.Name, m.Unit})
	}
	ms = append(ms, []layerMetric{
		{"snapshot.build_s", "s"}, {"snapshot.instantiate_s", "s"},
		{"snapshot.hit_ratio", "ratio"}, {"snapshot.lookups", "count"}, {"snapshot.alloc_mb", "MB"},
		{"workload.churn_s", "s"}, {"workload.prune_s", "s"}, {"workload.churn_mb", "MB"}, {"workload.alloc_mb", "MB"},
		{"rts.roots_s", "s"}, {"rts.alloc_mb", "MB"},
		{"trace.mark_s", "s"}, {"trace.mark_cycles", "cycles"}, {"trace.mark_mcycles_per_s", "Mcycles/s"}, {"trace.alloc_mb", "MB"},
		{"sweep.sweep_s", "s"}, {"sweep.sweep_cycles", "cycles"}, {"sweep.mcycles_per_s", "Mcycles/s"}, {"sweep.alloc_mb", "MB"},
		{"swgc.collect_s", "s"}, {"swgc.cycles", "cycles"}, {"cpu.instructions", "count"}, {"swgc.alloc_mb", "MB"},
		{"dram.accesses", "count"}, {"dram.row_hit_ratio", "ratio"},
		{"tilelink.busy_fraction", "ratio"}, {"tilelink.cycles_per_request", "cycles"},
	}...)
	ms = append(ms,
		layerMetric{"experiments." + serveExperiment + "_s", "s"},
		layerMetric{"experiments.encode_s", "s"}, layerMetric{"experiments.alloc_mb", "MB"},
		layerMetric{"service.queue_wait_ms", "ms"}, layerMetric{"service.run_ms", "ms"},
		layerMetric{"resultcache.hit_ratio", "ratio"}, layerMetric{"resultcache.lookup_ms", "ms"},
		layerMetric{"service.alloc_mb", "MB"},
		layerMetric{"failed_share", "ratio"},
		layerMetric{"layer_coverage", "ratio"},
		layerMetric{"trace_overhead_s", "s"}, layerMetric{"trace_overhead_share", "ratio"},
	)
	return ms
}

// perLayer computes the per-layer metrics from the traced repeats (each the
// median over them), the wall-clock metrics and the tracing overhead from
// the untraced ones.
// On serve-mix, the experiments layer comes from the traced reference
// child, which runs every distinct job directly, one at a time.
func perLayer(plain, traced []childRun, ref *childRun, v verification) []metricValue {
	vals := make(map[string][]float64)
	var tracedCPU, plainCPU []float64
	for _, r := range plain {
		if r.err == nil {
			plainCPU = append(plainCPU, r.res.CPUS)
		}
	}
	for _, r := range traced {
		if r.err != nil {
			continue
		}
		tracedCPU = append(tracedCPU, r.res.CPUS)
		one := map[string]float64{}
		for k, x := range r.res.Layers {
			one[k] = x
		}
		var covered, glue float64
		for name, c := range selfCosts(r.res.Spans) {
			one[name+"_s"] += c.Seconds
			if layer, _, ok := strings.Cut(name, "."); ok {
				one[layer+".alloc_mb"] += c.Bytes / mb
			}
			switch name {
			case "pass", "cell", "job":
				// Concurrent jobs overlap, which leaves serve-mix's pass
				// span a negative self time.
				glue += max(c.Seconds, 0)
			case "check", "snapshot.build":
			default:
				covered += c.Seconds
			}
		}
		// On serial workloads covered+glue is the pass's wall time; on
		// serve-mix it is the summed time of concurrent jobs.
		one["layer_coverage"] = ratio(covered, covered+glue)
		one["trace.mark_mcycles_per_s"] = ratio(one["trace.mark_cycles"]/1e6, one["trace.mark_s"])
		one["sweep.mcycles_per_s"] = ratio(one["sweep.sweep_cycles"]/1e6, one["sweep.sweep_s"])
		for k, x := range one {
			vals[k] = append(vals[k], x)
		}
	}
	if ref != nil && ref.err == nil {
		for name, c := range selfCosts(ref.res.Spans) {
			vals[name+"_s"] = append(vals[name+"_s"], c.Seconds)
		}
		var alloc float64
		for _, s := range ref.res.Spans {
			alloc += float64(s.Alloc)
		}
		vals["experiments.alloc_mb"] = append(vals["experiments.alloc_mb"], alloc/mb)
	}
	wall := make(map[string]metricValue)
	for _, m := range wallClock(plain) {
		wall[m.Name] = m
	}
	over := median(tracedCPU) - median(plainCPU)
	var out []metricValue
	for _, m := range layerMetrics() {
		mv := metricValue{Name: m.Name, Unit: m.Unit, Value: median(vals[m.Name])}
		if w, ok := wall[m.Name]; ok {
			mv = w
		}
		switch m.Name {
		case "failed_share":
			mv.Value = ratio(float64(v.failed), float64(v.attempted))
			mv.Note = fmt.Sprintf("  (%d of %d)", v.failed, v.attempted)
		case "trace_overhead_s":
			mv.Value = over
			mv.Note = fmt.Sprintf("  (traced cpu_s %.4g s - untraced %.4g s)", median(tracedCPU), median(plainCPU))
		case "trace_overhead_share":
			mv.Value = ratio(over, median(plainCPU))
		case "snapshot.hit_ratio":
			mv.Note = fmt.Sprintf("  (of %.0f lookups)", median(vals["snapshot.lookups"]))
		}
		out = append(out, mv)
	}
	return out
}
