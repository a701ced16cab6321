// Package power provides the analytical area and energy models standing in
// for the paper's Synopsys DC synthesis (SAED EDK 32/28) and Micron DDR3
// power-calculator results (Figures 22 and 23).
//
// The models are structural: area is computed from each component's SRAM
// bits, CAM bits and logic complexity with per-technology constants, and
// energy from activity counters (cycles, DRAM accesses, row activations,
// bytes). Constants are calibrated so the baseline configuration lands on
// the paper's ballpark numbers — a Rocket core (with L2) of about 8 mm²,
// a GC unit at ~18.5% of that (the area of roughly 64 KB of SRAM), and an
// overall GC energy saving of ~15% despite higher DRAM power.
package power

import (
	"hwgc/internal/cpu"
	"hwgc/internal/sweep"
	"hwgc/internal/trace"
)

// Technology constants (32/28 nm class).
const (
	// sramMM2PerBit approximates dense SRAM macro area in mm² per bit
	// (6T cell plus array overhead).
	sramMM2PerBit = 1.4e-6
	// camMM2PerBit approximates fully-associative CAM area (TLBs,
	// mark-bit cache tags).
	camMM2PerBit = 3.0e-6
	// regMM2PerBit approximates flop-based queue storage.
	regMM2PerBit = 6.5e-6
)

// AreaBreakdown reports component areas in mm².
type AreaBreakdown struct {
	Components []AreaComponent
}

// AreaComponent is one labelled area contribution.
type AreaComponent struct {
	Name string
	MM2  float64
}

// Total sums the breakdown.
func (a AreaBreakdown) Total() float64 {
	t := 0.0
	for _, c := range a.Components {
		t += c.MM2
	}
	return t
}

// Get returns a named component's area (0 if absent).
func (a AreaBreakdown) Get(name string) float64 {
	for _, c := range a.Components {
		if c.Name == name {
			return c.MM2
		}
	}
	return 0
}

// RocketArea models the baseline in-order core with its caches (the
// Figure 22b breakdown: L2, L1 DCache, frontend, everything else).
func RocketArea(cfg cpu.Config) AreaBreakdown {
	l2 := float64(cfg.L2Bytes*8) * sramMM2PerBit * 1.35 // data + tags/control
	dcache := float64(cfg.L1Bytes*8)*sramMM2PerBit*1.5 + 0.7
	// Frontend: ICache (same size as DCache in Table I) + fetch/branch
	// logic.
	frontend := float64(cfg.L1Bytes*8)*sramMM2PerBit*1.5 + 0.9
	// Other: integer/FP datapaths, CSRs, PTW, TLBs.
	other := 1.15 + float64(cfg.TLBEntries*2)*64*camMM2PerBit
	return AreaBreakdown{Components: []AreaComponent{
		{Name: "L2 Cache", MM2: l2},
		{Name: "L1 DCache", MM2: dcache},
		{Name: "Frontend", MM2: frontend},
		{Name: "Other", MM2: other},
	}}
}

// UnitArea models the GC unit (the Figure 22c breakdown: mark queue,
// tracer, marker, PTW, sweepers, other).
func UnitArea(ucfg trace.Config, scfg sweep.Config) AreaBreakdown {
	entryBits := 64.0
	if ucfg.Compress {
		entryBits = 32
	}
	markQ := (float64(ucfg.MarkQueueEntries)+2*float64(ucfg.StageEntries))*entryBits*regMM2PerBit + 0.02
	tracer := float64(ucfg.TracerQueueEntries)*128*regMM2PerBit + 0.08
	marker := float64(ucfg.MarkerSlots)*(64+16)*regMM2PerBit + 0.08
	ptw := float64(ucfg.PTWCacheBytes*8)*sramMM2PerBit*1.5 +
		float64(2*ucfg.TLBEntries+ucfg.L2TLBEntries)*64*camMM2PerBit + 0.01
	sweepers := float64(scfg.Sweepers)*0.04 + 0.01
	other := 0.30 + float64(ucfg.MarkBitCacheSize)*64*camMM2PerBit
	return AreaBreakdown{Components: []AreaComponent{
		{Name: "Mark Q.", MM2: markQ},
		{Name: "Tracer", MM2: tracer},
		{Name: "Marker", MM2: marker},
		{Name: "PTW", MM2: ptw},
		{Name: "Sweeper", MM2: sweepers},
		{Name: "Other", MM2: other},
	}}
}

// SRAMEquivalentKB converts an area to its equivalent in KB of dense SRAM
// (the paper's "64 KB of SRAM" comparison).
func SRAMEquivalentKB(mm2 float64) float64 {
	return mm2 / (sramMM2PerBit * 8 * 1024)
}

// --- Energy -----------------------------------------------------------------

// Activity summarizes a run for the energy model.
type Activity struct {
	Cycles        uint64 // wall-clock cycles at 1 GHz
	DRAMAccesses  uint64
	DRAMBytes     uint64
	RowActivates  uint64 // row misses + conflicts
	ComputeActive bool   // true when the CPU core is doing the work
}

// Energy/power constants.
const (
	// cpuCorePowerW is the Rocket core + cache active power.
	cpuCorePowerW = 0.235
	// unitPowerW is the GC unit's active power.
	unitPowerW = 0.042
	// dramStaticPowerW is DRAM background/standby power.
	dramStaticPowerW = 0.085
	// dramEnergyPerActJ is the activate+precharge energy per row cycle.
	dramEnergyPerActJ = 18e-9
	// dramEnergyPerByteJ is the IO + array access energy per byte.
	dramEnergyPerByteJ = 62e-12
)

// Result reports power and energy for one phase.
type Result struct {
	CoreW  float64 // CPU or unit power
	DRAMW  float64 // average DRAM power
	Joules float64
}

// MilliJoules returns the energy in mJ.
func (r Result) MilliJoules() float64 { return r.Joules * 1e3 }

// Energy evaluates the model over an activity record.
func Energy(a Activity) Result {
	seconds := float64(a.Cycles) / 1e9
	var core float64
	if a.ComputeActive {
		core = cpuCorePowerW
	} else {
		core = unitPowerW
	}
	dynJ := float64(a.RowActivates)*dramEnergyPerActJ + float64(a.DRAMBytes)*dramEnergyPerByteJ
	dramW := dramStaticPowerW
	if seconds > 0 {
		dramW += dynJ / seconds
	}
	coreJ := core * seconds
	dramJ := dramStaticPowerW*seconds + dynJ
	return Result{CoreW: core, DRAMW: dramW, Joules: coreJ + dramJ}
}
