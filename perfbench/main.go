// Command perfbench is the repository benchmark: it measures the host cost
// of regenerating the paper's results and of serving them, end to end and
// layer by layer, and checks every output it measures. See README.md.
//
//	bash perfbench/run.sh --workload unit-design --seed 1 --seconds 30 --trace 0
//
// The process started by run.sh is the parent. It generates the workload's
// input from --seed, then runs repeats in fresh child processes of the same
// binary until --seconds have passed (at least minRepeats of them), and
// prints every metric by name and unit. Its last line of output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 12, "how long to keep starting repeats")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	child := flag.String("child", "", "internal: run as a child process in this mode")
	traced := flag.Bool("traced", false, "internal: the child records spans")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *traced); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	plan, err := newPlan(*name, *seed, runtime.NumCPU())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(plan, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// Repeat bounds. A run keeps starting repeats until its time is up, but
// never reports a median of fewer than minRepeats, and takes set-up time as
// the median of at least minSetups set-ups.
const (
	minRepeats = 3
	minSetups  = 5
	maxRepeats = 40
	// runLimit bounds a whole run; a child still running then is killed
	// and its operations count as failed.
	runLimit = 170 * time.Second
)

// childRun is one child process as the parent saw it.
type childRun struct {
	res repeatResult
	err error
}

func run(plan Plan, seed uint64, seconds time.Duration, trace bool, outDir string) error {
	planJSON, err := json.Marshal(plan)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	spawn := func(mode string, traced bool) childRun {
		return spawnChild(ctx, exe, planJSON, mode, traced)
	}

	start := time.Now()
	deadline := start.Add(seconds)
	var plain, tracedRuns []childRun
	var longest time.Duration
	for len(plain)+len(tracedRuns) < maxRepeats && ctx.Err() == nil {
		// A traced run alternates traced and untraced repeats, traced
		// first: the untraced ones are the reference for the tracing
		// overhead.
		t := trace && len(tracedRuns) <= len(plain)
		began := time.Now()
		r := spawn(modeRepeat, t)
		longest = max(longest, time.Since(began))
		if t {
			tracedRuns = append(tracedRuns, r)
		} else {
			plain = append(plain, r)
		}
		done := len(plain)
		if trace {
			done = min(len(plain), len(tracedRuns))
		}
		// Stop once time is up, or when another repeat 15% longer than
		// the longest so far would not finish within the run limit.
		if done >= minRepeats && time.Now().After(deadline) ||
			time.Since(start)+longest*115/100 > runLimit-10*time.Second {
			break
		}
	}
	all := append(append([]childRun(nil), plain...), tracedRuns...)

	var setups []float64
	for _, r := range all {
		if r.err == nil {
			setups = append(setups, r.res.SetupS)
		}
	}
	for len(setups) < minSetups && ctx.Err() == nil {
		r := spawn(modeSetup, false)
		if r.err != nil {
			all = append(all, r)
			break
		}
		setups = append(setups, r.res.SetupS)
	}

	var ref *childRun
	if plan.Workload == "serve-mix" {
		r := spawn(modeReference, trace)
		ref = &r
	}

	v := verify(plan, all, ref)
	var metrics []metricValue
	if trace {
		metrics = perLayer(plain, tracedRuns, ref, v)
		if err := writeSpans(outDir, plan.Workload, seed, tracedRuns); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	} else {
		metrics = endToEnd(plain, setups)
	}
	printReport(plan, seed, plain, tracedRuns, v, metrics)
	return nil
}

// spawnChild runs one child process to completion, feeding it the plan.
func spawnChild(ctx context.Context, exe string, plan []byte, mode string, traced bool) childRun {
	args := []string{"-child", mode}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdin = bytes.NewReader(plan)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	var r childRun
	if err := cmd.Run(); err != nil {
		r.err = fmt.Errorf("%s child: %w", mode, err)
		return r
	}
	if err := json.Unmarshal(stdout.Bytes(), &r.res); err != nil {
		r.err = fmt.Errorf("%s child: bad result: %w", mode, err)
		return r
	}
	return r
}

// verification is the run's output check: operations attempted and failed
// over every repeat, and why.
type verification struct {
	attempted, failed int
	digest            string
	problems          []string
}

func (v *verification) fail(n int, format string, args ...any) {
	v.failed += n
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// verify counts every repeat's operations and checks that all repeats
// simulated the same thing: an operation that errored, or a repeat whose
// sim digest differs from the first repeat's, counts as failed. serve-mix
// reports must also equal a direct Runner.Run of the same options.
func verify(plan Plan, runs []childRun, ref *childRun) verification {
	var v verification
	ops := planOps(plan)
	for i, r := range runs {
		if r.err != nil {
			v.attempted += ops
			v.fail(ops, "repeat %d: %v", i, r.err)
			continue
		}
		if r.res.Digest == "" { // set-up-only child
			continue
		}
		v.attempted += len(r.res.Ops)
		for _, op := range r.res.Ops {
			if op.Err != "" {
				v.fail(1, "repeat %d: %s", i, op.Err)
			}
		}
		if v.digest == "" {
			v.digest = r.res.Digest
		} else if r.res.Digest != v.digest {
			v.fail(len(r.res.Ops), "repeat %d: sim digest %.16s differs from %.16s", i, r.res.Digest, v.digest)
		}
		if ref != nil {
			v.checkServe(plan, i, r.res, *ref)
		}
	}
	return v
}

// checkServe compares every served report with the reference child's
// direct run of the job it answers.
func (v *verification) checkServe(plan Plan, i int, got repeatResult, ref childRun) {
	if ref.err != nil {
		v.fail(len(got.Ops), "repeat %d: no reference: %v", i, ref.err)
		return
	}
	for _, j := range plan.Jobs {
		src := j.ID
		if j.RepeatOf >= 0 {
			src = j.RepeatOf
		}
		if g, w := got.Reports[j.ID], ref.res.Reports[src]; g == "" || g != w {
			v.fail(1, "repeat %d: job %d (%s) report differs from a direct Runner.Run", i, j.ID, j.Experiment)
		}
	}
}

// planOps is the number of operations one repeat of the plan attempts.
func planOps(p Plan) int {
	switch p.Workload {
	case "serve-mix":
		return len(p.Jobs)
	}
	return len(p.Cells)
}

// writeSpans stores the traced repeats' spans, one JSON document per run.
func writeSpans(dir, workload string, seed uint64, runs []childRun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type repeat struct {
		Repeat int    `json:"repeat"`
		Spans  []Span `json:"spans"`
	}
	var doc []repeat
	for i, r := range runs {
		doc = append(doc, repeat{Repeat: i, Spans: r.res.Spans})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)), b, 0o644)
}

// printReport writes the human-readable report and, last, the JSON result.
func printReport(plan Plan, seed uint64, plain, traced []childRun, v verification, metrics []metricValue) {
	fmt.Printf("perfbench %s  seed=%d  repeats=%d untraced, %d traced  GOMAXPROCS=%d\n",
		plan.Workload, seed, len(plain), len(traced), runtime.GOMAXPROCS(0))
	fmt.Println("every repeat is a fresh process: the heap-image store, the result cache and all modelled caches start empty, and no default telemetry hub is installed at start")
	fmt.Printf("sim_digest %s\n", v.digest)
	for _, r := range plain {
		fmt.Printf("  repeat cpu %.4f s  wall %.4f s  set-up cpu %.4f s\n", r.res.CPUS, r.res.WallS, r.res.SetupS)
	}
	for _, m := range metrics {
		fmt.Printf("  %-34s %14.6g %s%s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", v.attempted, v.failed)
	for _, p := range v.problems {
		fmt.Println("  FAILED:", p)
	}

	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: v.failed == 0 && v.attempted > 0, Attempted: max(v.attempted, 1), Failed: v.failed,
		Metrics: map[string]metricJSON{}}
	if v.attempted == 0 {
		out.Failed = 1
	}
	for _, m := range metrics {
		out.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of finite floats always encodes
	}
	fmt.Println(string(b))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricValue is one printed metric; Note qualifies it for the reader.
type metricValue struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}
