package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/service"
	"hwgc/internal/snapshot"
	"hwgc/internal/telemetry"
)

// runServe runs serve-mix: an in-process service.Scheduler built as
// hwgc-serve builds it by default (GOMAXPROCS workers, a 64-deep queue, an
// in-memory result cache, a synchronized hub installed as the default)
// behind service.NewHandler on a loopback listener. Plan.Clients
// closed-loop clients, one connection each, send their jobs in order and
// wait for each final response.
func runServe(p Plan, mode string, rec *recorder) (repeatResult, error) {
	if mode == modeReference {
		return serveReference(p, rec)
	}
	var res repeatResult
	cache, err := resultcache.New(0, "")
	if err != nil {
		return res, err
	}
	hub := telemetry.NewSyncHub(1024)
	telemetry.SetDefault(hub)
	defer telemetry.SetDefault(nil)
	sched := service.New(service.Config{Workers: runtime.GOMAXPROCS(0), QueueDepth: 64, Cache: cache, Hub: hub})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	srv := &http.Server{Handler: service.NewHandler(sched, hub)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: p.Clients, MaxIdleConnsPerHost: p.Clients}
	client := &http.Client{Transport: tr}
	defer func() {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-served
		_ = sched.Drain(ctx)
	}()
	base := "http://" + ln.Addr().String()

	// Each client opens its connection before the clock starts.
	var wg sync.WaitGroup
	warm := make([]error, p.Clients)
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm[c] = getJSON(client, base+"/healthz", nil)
		}()
	}
	wg.Wait()
	if err := errors.Join(warm...); err != nil {
		return res, fmt.Errorf("service not ready: %w", err)
	}
	res.SetupS = cpuTime().Seconds()
	if mode == modeSetup {
		return res, nil
	}

	m := newMeter()
	pass := rec.begin("pass", -1, -1)
	out := make([]jobOutcome, len(p.Jobs))
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range p.Jobs {
				if j.Client == c {
					out[j.ID] = serveOne(client, base, j, rec, pass)
				}
			}
		}()
	}
	wg.Wait()
	rec.end(pass)
	res.WallS, res.CPUS, res.AllocB = m.wall(), m.cpu(), m.alloc()

	digest := sha256.New()
	res.Reports = make(map[int]string)
	var wait, run, lookup []float64
	for _, j := range p.Jobs {
		s := out[j.ID]
		op := opResult{MS: s.ms}
		switch {
		case s.err != nil:
			op.Err = fmt.Sprintf("job %d (%s): %v", j.ID, j.Experiment, s.err)
		case s.view.State != service.StateSucceeded:
			op.Err = fmt.Sprintf("job %d (%s): %s: %s", j.ID, j.Experiment, s.view.State, s.view.Error)
		case s.view.CacheHit != (j.RepeatOf >= 0):
			op.Err = fmt.Sprintf("job %d (%s): cache hit %v, want %v", j.ID, j.Experiment, s.view.CacheHit, j.RepeatOf >= 0)
		}
		res.Ops = append(res.Ops, op)
		res.Reports[j.ID] = s.report
		res.Cycles += float64(s.cycles)
		fmt.Fprintf(digest, "job %d hit=%v cycles=%d report=%s\n", j.ID, s.view.CacheHit, s.cycles, s.report)
		if s.view.Started != nil && s.view.Finished != nil {
			wait = append(wait, ms(s.view.Started.Sub(s.view.Submitted)))
			if s.view.CacheHit {
				lookup = append(lookup, ms(s.view.Finished.Sub(*s.view.Started)))
			} else {
				run = append(run, ms(s.view.Finished.Sub(*s.view.Started)))
			}
		}
	}
	res.Digest = hex.EncodeToString(digest.Sum(nil))
	cs, ss := cache.Stats(), snapshot.Default().Stats()
	res.Layers = map[string]float64{
		"service.queue_wait_ms": median(wait),
		"service.run_ms":        median(run),
		"resultcache.lookup_ms": median(lookup),
		"resultcache.hit_ratio": ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)),
		"service.alloc_mb":      res.AllocB / mb,
		"snapshot.hit_ratio":    ratio(float64(ss.Hits), float64(ss.Hits+ss.Misses)),
		"snapshot.lookups":      float64(ss.Hits + ss.Misses),
	}
	return res, nil
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	view   service.View
	report string // hash of the compacted report bytes
	cycles uint64
	ms     float64
	err    error
}

// serveOne submits one job and waits for its final response, then reads
// the cycles it simulated from the progress endpoint.
func serveOne(client *http.Client, base string, j Job, rec *recorder, pass int) jobOutcome {
	var s jobOutcome
	body, err := json.Marshal(map[string]any{"experiment": j.Experiment, "options": j.Options, "wait": true})
	if err != nil {
		s.err = err
		return s
	}
	start := time.Now()
	sp := rec.begin("job", pass, j.ID)
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err == nil {
		err = decodeBody(resp, &s.view)
	}
	rec.end(sp)
	s.ms = ms(time.Since(start))
	if err != nil {
		s.err = err
		return s
	}
	if v := s.view; v.Started != nil && v.Finished != nil {
		rec.add("service.queue_wait", sp, j.ID, v.Submitted, *v.Started)
		rec.add("service.run", sp, j.ID, *v.Started, *v.Finished)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, s.view.Report); err != nil {
		s.err = fmt.Errorf("report: %w", err)
		return s
	}
	s.report = hashBytes(compact.Bytes())
	var prog service.Progress
	if err := getJSON(client, base+"/v1/jobs/"+s.view.ID+"/progress", &prog); err != nil {
		s.err = err
		return s
	}
	s.cycles = prog.CyclesSimulated
	return s
}

// serveReference runs every distinct serve-mix job directly through its
// Runner.Run, one at a time, and returns each report's hash: what the
// service must have answered, hit or miss. Traced, it is where the
// experiments layer is timed: one span per Run and per EncodeReport.
func serveReference(p Plan, rec *recorder) (repeatResult, error) {
	res := repeatResult{Reports: make(map[int]string)}
	var errs []error
	for _, j := range p.Jobs {
		if j.RepeatOf >= 0 {
			continue
		}
		h, err := directReport(j, rec)
		if err != nil {
			errs = append(errs, fmt.Errorf("job %d (%s): %w", j.ID, j.Experiment, err))
			continue
		}
		res.Reports[j.ID] = h
	}
	return res, errors.Join(errs...)
}

func directReport(j Job, rec *recorder) (string, error) {
	r, ok := experiments.ByID(j.Experiment)
	if !ok {
		return "", fmt.Errorf("unknown experiment")
	}
	sp := rec.begin("experiments."+j.Experiment, -1, j.ID)
	rep, err := r.Run(j.Options)
	rec.end(sp)
	if err != nil {
		return "", err
	}
	sp = rec.begin("experiments.encode", -1, j.ID)
	b, err := experiments.EncodeReport(rep)
	rec.end(sp)
	if err != nil {
		return "", err
	}
	return hashBytes(b), nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return decodeBody(resp, v)
}

// decodeBody reads a response to the end, so the connection is reused,
// and decodes a 200 response's JSON into v (nil to discard it).
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(b, v)
}

func hashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
