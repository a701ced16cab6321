package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"hwgc/internal/core"
	"hwgc/internal/dram"
	"hwgc/internal/experiments"
	"hwgc/internal/resultcache"
	"hwgc/internal/snapshot"
)

// runCells runs a cell workload (unit-design, cpu-baseline). Set-up
// cold-builds every heap image the cells use; the timed pass instantiates
// each cell from the store and drives it through Plan.GCs collections.
//
// An untraced repeat drives each collection through core.AppRunner.Step,
// the call the experiments use, and checks the sweep against the
// reachability ground truth after it with the clock paused. A traced
// repeat makes Step's calls itself, one span per layer, so it can also
// check the marks between mark and sweep. Both paths feed the same
// sim_digest, so a run's traced and untraced repeats must agree. After an
// untraced pass, the plan's MarkCheck cell runs once more through the split
// path, outside the timed pass, with its marks checked, and must simulate
// exactly what Step did.
func runCells(p Plan, mode string, rec *recorder) (repeatResult, error) {
	var res repeatResult
	store := snapshot.Default()
	built := make(map[resultcache.Key]bool)
	for _, c := range p.Cells {
		cfg := cellConfig(p, c)
		key := snapshot.KeyFor(cfg.System, c.Spec, c.Seed)
		if built[key] {
			continue
		}
		built[key] = true
		sp := rec.begin("snapshot.build", -1, -1)
		store.Get(cfg.System, c.Spec, c.Seed)
		rec.end(sp)
	}
	res.SetupS = cpuTime().Seconds()
	if mode == modeSetup {
		return res, nil
	}

	split := rec != nil
	m := newMeter()
	pass := rec.begin("pass", -1, -1)
	var st cellStats
	sums := make([][]byte, len(p.Cells))
	for i, c := range p.Cells {
		start, paused := time.Now(), m.paused
		sum, err := runCell(p, c, split, rec, pass, m, &st)
		op := opResult{MS: float64(time.Since(start)-(m.paused-paused)) / 1e6}
		if err != nil {
			op.Err = fmt.Sprintf("cell %d (%s): %v", c.ID, c.Spec.Name, err)
		}
		res.Ops = append(res.Ops, op)
		sums[i] = sum
	}
	rec.end(pass)
	res.WallS, res.CPUS, res.AllocB = m.wall(), m.cpu(), m.alloc()
	res.Cycles = st.gcCycles
	ss := store.Stats()

	if i := p.MarkCheck; !split && i >= 0 && res.Ops[i].Err == "" {
		c := p.Cells[i]
		sum, err := runCell(p, c, true, nil, -1, newMeter(), &cellStats{})
		if err == nil && !bytes.Equal(sum, sums[i]) {
			err = fmt.Errorf("the split calls simulated something other than AppRunner.Step")
		}
		if err != nil {
			res.Ops[i].Err = fmt.Sprintf("cell %d (%s) mark check: %v", c.ID, c.Spec.Name, err)
		}
	}

	digest := sha256.New()
	for _, sum := range sums {
		digest.Write(sum)
	}
	res.Digest = hex.EncodeToString(digest.Sum(nil))
	lookups := float64(ss.Hits + ss.Misses)
	res.Layers = map[string]float64{
		"snapshot.hit_ratio":          ratio(float64(ss.Hits), lookups),
		"snapshot.lookups":            lookups,
		"workload.churn_mb":           st.churnBytes / (1 << 20),
		"trace.mark_cycles":           st.markCycles,
		"sweep.sweep_cycles":          st.sweepCycles,
		"swgc.cycles":                 st.swCycles,
		"cpu.instructions":            st.instructions,
		"dram.accesses":               st.mem.Accesses,
		"dram.row_hit_ratio":          ratio(st.mem.RowHits, st.mem.Accesses),
		"tilelink.busy_fraction":      ratio(st.busyFraction, st.hwCells),
		"tilelink.cycles_per_request": ratio(st.cyclesPerRequest, st.hwCells),
	}
	return res, nil
}

// cellConfig is the experiments' scaled system with the cell's heap size
// and design point applied.
func cellConfig(p Plan, c Cell) core.Config {
	cfg := experiments.ScaledConfig()
	cfg.System.Heap.MarkSweepBytes = p.HeapBytes
	if c.Sweepers > 0 {
		cfg.Sweep.Sweepers = c.Sweepers
	}
	if c.MarkQueue > 0 {
		cfg.Unit.MarkQueueEntries = c.MarkQueue
	}
	return cfg
}

// cellStats accumulates the simulated statistics of a pass.
type cellStats struct {
	gcCycles, markCycles, sweepCycles, swCycles float64
	instructions, churnBytes                    float64
	busyFraction, cyclesPerRequest, hwCells     float64
	mem                                         struct{ Accesses, RowHits float64 }
}

// runCell runs one cell, through AppRunner.Step or, when split, through
// the layer calls Step makes, and returns the hash of every simulated
// statistic it produced: two runs of a cell agree only if they simulated
// the same thing.
func runCell(p Plan, c Cell, split bool, rec *recorder, parent int, m *meter, st *cellStats) (sum []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	cs := rec.begin("cell", parent, c.ID)
	defer rec.end(cs)
	kind := core.SWCollector
	if c.HW {
		kind = core.HWCollector
	}
	sp := rec.begin("snapshot.instantiate", cs, c.ID)
	r, err := core.NewAppRunner(cellConfig(p, c), c.Spec, kind, c.Seed)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	digest := sha256.New()
	fmt.Fprintf(digest, "cell %d\n", c.ID)
	for g := 0; g < p.GCs; g++ {
		before := r.App.AllocatedBytes
		var gc core.GCResult
		if split {
			gc, err = splitGC(r, c, g, rec, cs, m)
		} else if err = r.Step(); err == nil {
			gc = r.Res.GCs[len(r.Res.GCs)-1]
			err = m.check(rec, cs, c.ID, r.Sys.CheckSweep)
		}
		if err != nil {
			return nil, fmt.Errorf("GC %d: %w", g, err)
		}
		churned := r.App.AllocatedBytes - before
		if c.HW {
			st.markCycles += float64(gc.MarkCycles)
			st.sweepCycles += float64(gc.SweepCycles)
		} else {
			st.swCycles += float64(gc.TotalCycles())
		}
		st.gcCycles += float64(gc.TotalCycles())
		st.churnBytes += float64(churned)
		fmt.Fprintf(digest, "gc %d churned=%d mark=%d sweep=%d marked=%d freed=%d\n",
			g, churned, gc.MarkCycles, gc.SweepCycles, gc.Marked, gc.Freed)
	}

	var ms dram.Stats
	if c.HW {
		ms = r.HW.MemStats()
		bus := r.HW.Bus
		st.busyFraction += bus.BusyFraction()
		st.cyclesPerRequest += bus.CyclesPerRequest()
		st.hwCells++
		fmt.Fprintf(digest, "bus grants=%d busy=%d\n", bus.Grants, bus.BusyBeats)
	} else {
		if s, ok := r.SW.Sync.(*dram.Sync); ok {
			ms = s.Stats()
		}
		st.instructions += float64(r.SW.CPU.Instructions)
		fmt.Fprintf(digest, "cpu instructions=%d memops=%d\n", r.SW.CPU.Instructions, r.SW.CPU.MemOps)
	}
	st.mem.Accesses += float64(ms.Accesses)
	st.mem.RowHits += float64(ms.RowHits)
	fmt.Fprintf(digest, "dram %+v\n", ms)
	return digest.Sum(nil), nil
}

// splitGC makes the calls of one AppRunner.Step (churn, roots, HW mark and
// sweep or SW collect, prune), one span each, and checks the marks between
// mark and sweep and the sweep after it.
func splitGC(r *core.AppRunner, c Cell, g int, rec *recorder, cs int, m *meter) (core.GCResult, error) {
	var gc core.GCResult
	before := r.App.AllocatedBytes
	sp := rec.begin("workload.churn", cs, c.ID)
	for r.App.Churn(1 << 20) {
	}
	rec.end(sp)
	if g > 0 && r.App.AllocatedBytes == before {
		return gc, fmt.Errorf("no allocation progress")
	}

	sp = rec.begin("rts.roots", cs, c.ID)
	r.App.WriteRoots()
	reach := r.Sys.Reachable()
	rec.end(sp)

	if c.HW {
		marked, freed := r.HW.Trace.Marker.NewlyMarked, r.HW.Sweep.CellsFreed
		sp = rec.begin("trace.mark", cs, c.ID)
		gc.MarkCycles = r.HW.RunMark()
		rec.end(sp)
		if err := m.check(rec, cs, c.ID, r.Sys.CheckMarks); err != nil {
			return gc, fmt.Errorf("marks: %w", err)
		}
		sp = rec.begin("sweep.sweep", cs, c.ID)
		gc.SweepCycles = r.HW.RunSweep()
		r.HW.Trace.FlushTLBs()
		rec.end(sp)
		gc.Marked = r.HW.Trace.Marker.NewlyMarked - marked
		gc.Freed = r.HW.Sweep.CellsFreed - freed
	} else {
		sp = rec.begin("swgc.collect", cs, c.ID)
		gc = r.SW.Collect()
		rec.end(sp)
	}
	if err := m.check(rec, cs, c.ID, r.Sys.CheckSweep); err != nil {
		return gc, fmt.Errorf("sweep: %w", err)
	}

	sp = rec.begin("workload.prune", cs, c.ID)
	r.App.PruneDeadPool(reach)
	rec.end(sp)
	return gc, nil
}

// meter times a pass with output checks excluded: check time and the bytes
// checks allocate are set aside, so cpu, wall and alloc cover only the work
// a user of the simulator pays for.
type meter struct {
	start       time.Time
	cpu0        time.Duration
	alloc0      uint64
	paused      time.Duration
	pausedCPU   time.Duration
	pausedAlloc uint64
}

func newMeter() *meter { return &meter{start: time.Now(), cpu0: cpuTime(), alloc0: allocBytes()} }

// check runs an output check with the clock paused.
func (m *meter) check(rec *recorder, parent, op int, fn func() error) error {
	sp := rec.begin("check", parent, op)
	t, c, a := time.Now(), cpuTime(), allocBytes()
	err := fn()
	m.pausedAlloc += allocBytes() - a
	m.pausedCPU += cpuTime() - c
	m.paused += time.Since(t)
	rec.end(sp)
	return err
}

func (m *meter) wall() float64 { return (time.Since(m.start) - m.paused).Seconds() }

func (m *meter) cpu() float64 { return (cpuTime() - m.cpu0 - m.pausedCPU).Seconds() }

func (m *meter) alloc() float64 { return float64(allocBytes() - m.alloc0 - m.pausedAlloc) }
