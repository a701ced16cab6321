package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Span is one timed call into a layer, recorded by the traced run from the
// benchmark's side of the call. Op is the cell, experiment or job the call
// belongs to (-1 for set-up), Parent the index of the enclosing span (-1
// for a root). Times are nanoseconds since the child's origin; Alloc is the
// host bytes allocated while the span was open (0 where concurrent spans
// make the process-wide counter meaningless).
type Span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Alloc  uint64 `json:"alloc"`
}

// recorder keeps spans in memory until the repeat ends. A nil recorder is
// the untraced run: begin returns -1 and end does nothing.
type recorder struct {
	origin    time.Time
	withAlloc bool

	mu    sync.Mutex
	spans []Span
}

func newRecorder(origin time.Time, withAlloc bool) *recorder {
	return &recorder{origin: origin, withAlloc: withAlloc}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	s := Span{Name: name, Op: op, Parent: parent}
	if r.withAlloc {
		s.Alloc = allocBytes()
	}
	s.Start = int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.origin))
	var alloc uint64
	if r.withAlloc {
		alloc = allocBytes()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[i]
	s.End = now
	s.Alloc = alloc - s.Alloc
}

// add records a span whose bounds were measured elsewhere (the service's
// own job timestamps).
func (r *recorder) add(name string, parent, op int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))})
}

// cost is one layer's self time and self allocation over a repeat.
type cost struct {
	Seconds float64
	Bytes   float64
}

// selfCosts sums each span name's self cost: its duration and allocation
// minus the parts its child spans cover.
func selfCosts(spans []Span) map[string]cost {
	childNS := make([]int64, len(spans))
	childAlloc := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += int64(s.Alloc)
		}
	}
	out := make(map[string]cost)
	for i, s := range spans {
		c := out[s.Name]
		c.Seconds += float64(s.End-s.Start-childNS[i]) / 1e9
		c.Bytes += float64(int64(s.Alloc) - childAlloc[i])
		out[s.Name] = c
	}
	return out
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

// allocBytes returns the cumulative host bytes allocated to the heap: the
// quantity runtime.MemStats.TotalAlloc reports, read without stopping the
// world.
func allocBytes() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuTime returns the host CPU time the process has used so far, user and
// system, over all its threads. Time the hypervisor steals from the VM is
// not in it (with paravirtual steal-time accounting, as on KVM guests).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set size in bytes (VmHWM), or
// 0 where /proc is unavailable.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}
