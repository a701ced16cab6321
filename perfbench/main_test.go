package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"hwgc/internal/resultcache"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program prints
// in step: same workloads, same metric names and units, same order.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloads)
	}
	var e2e, layers []metric
	for _, m := range endToEnd(nil, nil) {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range layerMetrics() {
		layers = append(layers, metric{m.Name, m.Unit})
	}
	if !slices.Equal(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", spec.EndToEnd, e2e)
	}
	if !slices.Equal(spec.PerLayer, layers) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", spec.PerLayer, layers)
	}
}

// TestServeJobs checks the serve-mix plan's promises for several seeds and
// client counts: every job has its ID as its index, every repeat resubmits
// an earlier original of its own client, so it must hit the cache, and no
// two originals share a cache key, so every original must miss.
func TestServeJobs(t *testing.T) {
	for _, clients := range []int{1, 2, 4} {
		for seed := uint64(1); seed <= 20; seed++ {
			jobs := serveJobs(seed, clients)
			if len(jobs) != clients*(serveDistinctPerClient+serveRepeatsPerClient) {
				t.Fatalf("seed %d: %d jobs", seed, len(jobs))
			}
			keys := map[resultcache.Key]bool{}
			repeats := 0
			for i, j := range jobs {
				if j.ID != i {
					t.Fatalf("seed %d clients %d: job %d has ID %d", seed, clients, i, j.ID)
				}
				if j.RepeatOf < 0 {
					k := resultcache.KeyOf(j.Experiment, j.Options)
					if keys[k] {
						t.Errorf("seed %d clients %d: job %d repeats an original", seed, clients, i)
					}
					keys[k] = true
					continue
				}
				repeats++
				src := jobs[j.RepeatOf]
				if j.RepeatOf >= i || src.Client != j.Client || src.RepeatOf >= 0 ||
					src.Experiment != j.Experiment || src.Options != j.Options {
					t.Errorf("seed %d clients %d: job %d is not a repeat of an earlier own original", seed, clients, i)
				}
			}
			if repeats != clients*serveRepeatsPerClient {
				t.Errorf("seed %d clients %d: %d repeats, want %d", seed, clients, repeats, clients*serveRepeatsPerClient)
			}
		}
	}
}

func TestTail(t *testing.T) {
	var vs []float64
	for i := 1; i <= 100; i++ {
		vs = append(vs, float64(i))
	}
	if got := tailOf(vs); got.Value != 90 || got.Percentile != 90 || got.N != 100 {
		t.Errorf("tail of 1..100 = %+v, want 90 at p90", got)
	}
	if got := tailOf(vs[:12]); got.Value != 12 || got.Percentile != 100 {
		t.Errorf("tail of 1..12 = %+v, want the maximum", got)
	}
}
