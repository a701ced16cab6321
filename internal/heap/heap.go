package heap

import (
	"fmt"

	"hwgc/internal/mem"
	"hwgc/internal/vmem"
)

// WordSize is the machine word size in bytes.
const WordSize = 8

// Layout selects the object layout.
type Layout uint8

const (
	// Bidirectional is the paper's layout: the status word (with #REFS)
	// sits at the cell start and all reference fields follow it
	// contiguously, so the traversal unit needs no type information —
	// one AMO yields the mark bit and #REFS, one unit-stride copy
	// fetches the references.
	Bidirectional Layout = iota
	// TIBLayout is the conventional JikesRVM layout: the first word
	// points to a type information block listing reference-field
	// offsets, costing two extra memory accesses per object on a
	// cacheless device (the paper's motivation for the bidirectional
	// layout).
	TIBLayout
)

// Ref is an object reference: the virtual address of the object's first
// word. Zero is null.
type Ref = uint64

// Virtual address bases for the simulated process layout. Kept well under
// the Sv39 limit, and within a 3 GiB span of VAHeapBase so that the mark
// queue's 32-bit compressed references (word offsets from the heap base,
// Section V-C) cover every space.
const (
	// VAHeapBase is where the MarkSweep space begins.
	VAHeapBase = uint64(0x10_0000_0000)
	// VABumpBase is where the bump (large-object/immortal) space begins.
	VABumpBase = VAHeapBase + 0x4000_0000
	// VAAuxBase is where runtime metadata (block table, root space,
	// TIBs) begins.
	VAAuxBase = VAHeapBase + 0x8000_0000
)

// Config sizes the heap.
type Config struct {
	Layout         Layout
	MarkSweepBytes uint64   // capacity of the MarkSweep space
	BumpBytes      uint64   // capacity of the bump space
	BlockBytes     uint64   // block size within the MarkSweep space
	SizeClasses    []uint64 // cell sizes, ascending
	Superpages     bool     // map regions with 2 MiB pages
}

// DefaultSizeClasses mirror a segregated-free-list ladder.
var DefaultSizeClasses = []uint64{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096, 8192}

// DefaultConfig returns a heap sized for the scaled-down DaCapo workloads.
func DefaultConfig() Config {
	return Config{
		Layout:         Bidirectional,
		MarkSweepBytes: 32 << 20,
		BumpBytes:      8 << 20,
		BlockBytes:     64 << 10,
		SizeClasses:    DefaultSizeClasses,
	}
}

// region is a flat-mapped VA range.
type region struct {
	va, pa, size uint64
}

func (r region) contains(va uint64) bool { return va >= r.va && va < r.va+r.size }

// Heap owns the simulated process address space: the MarkSweep space, the
// bump space, and an auxiliary metadata region, all flat-mapped through the
// page table.
type Heap struct {
	cfg     Config
	Mem     *mem.Physical
	PT      *vmem.PageTable
	MS      *MarkSweep
	Bump    *BumpSpace
	Aux     *BumpSpace
	regions []region

	sense bool // current "marked" polarity

	tibs map[tibKey]uint64 // TIB cache for TIBLayout

	// Allocations counts objects allocated, AllocatedBytes their cell
	// bytes.
	Allocations    uint64
	AllocatedBytes uint64
}

type tibKey struct {
	nrefs   int
	scalars int
}

// New builds a heap, allocating physical backing from arena and installing
// flat mappings in pt.
func New(m *mem.Physical, arena *mem.Arena, pt *vmem.PageTable, cfg Config) *Heap {
	if cfg.BlockBytes == 0 || cfg.MarkSweepBytes%cfg.BlockBytes != 0 {
		panic("heap: MarkSweepBytes must be a multiple of BlockBytes")
	}
	if len(cfg.SizeClasses) == 0 {
		panic("heap: no size classes")
	}
	if cfg.MarkSweepBytes > VABumpBase-VAHeapBase || cfg.BumpBytes > VAAuxBase-VABumpBase {
		panic("heap: space exceeds its virtual address window")
	}
	h := &Heap{cfg: cfg, Mem: m, PT: pt, tibs: make(map[tibKey]uint64)}

	auxBytes := uint64(4 << 20)
	h.mapRegion(VAHeapBase, cfg.MarkSweepBytes, arena)
	h.mapRegion(VABumpBase, cfg.BumpBytes, arena)
	h.mapRegion(VAAuxBase, auxBytes, arena)

	h.MS = newMarkSweep(h, VAHeapBase, cfg)
	h.Bump = newBumpSpace(h, VABumpBase, cfg.BumpBytes)
	h.Aux = newBumpSpace(h, VAAuxBase, auxBytes)
	h.MS.allocTable()
	return h
}

func (h *Heap) mapRegion(va, size uint64, arena *mem.Arena) {
	align := uint64(vmem.PageSize)
	if h.cfg.Superpages {
		align = 1 << vmem.SuperPageBits
		size = (size + align - 1) &^ (align - 1)
	}
	r := arena.Alloc(size, align)
	if h.cfg.Superpages {
		h.PT.MapRangeSuper(va, r.Base, size)
	} else {
		h.PT.MapRange(va, r.Base, size)
	}
	h.regions = append(h.regions, region{va: va, pa: r.Base, size: size})
}

// Config returns the heap configuration.
func (h *Heap) Config() Config { return h.cfg }

// CloneFor returns a heap over m and pt (snapshot clones of the memory and
// page table this heap was built in) with identical runtime-side state:
// free-list mirrors, bump pointers, TIB cache, mark sense, and counters.
// The in-memory structures themselves ride along in m's pages.
func (h *Heap) CloneFor(m *mem.Physical, pt *vmem.PageTable) *Heap {
	c := &Heap{
		cfg:            h.cfg,
		Mem:            m,
		PT:             pt,
		regions:        append([]region(nil), h.regions...),
		sense:          h.sense,
		tibs:           make(map[tibKey]uint64, len(h.tibs)),
		Allocations:    h.Allocations,
		AllocatedBytes: h.AllocatedBytes,
	}
	for k, v := range h.tibs {
		c.tibs[k] = v
	}
	c.MS = h.MS.cloneFor(c)
	c.Bump = h.Bump.cloneFor(c)
	c.Aux = h.Aux.cloneFor(c)
	return c
}

// PA translates a heap virtual address through the flat map (functional
// fast path; the timed models translate through TLBs and page walks).
func (h *Heap) PA(va uint64) uint64 {
	for _, r := range h.regions {
		if r.contains(va) {
			return r.pa + (va - r.va)
		}
	}
	panic(fmt.Sprintf("heap: VA 0x%x outside heap regions", va))
}

// Contains reports whether va lies in any heap region.
func (h *Heap) Contains(va uint64) bool {
	for _, r := range h.regions {
		if r.contains(va) {
			return true
		}
	}
	return false
}

// Load reads the word at heap VA va.
func (h *Heap) Load(va uint64) uint64 { return h.Mem.Load64(h.PA(va)) }

// Store writes the word at heap VA va.
func (h *Heap) Store(va, v uint64) { h.Mem.Store64(h.PA(va), v) }

// --- Mark sense -----------------------------------------------------------

// FlipSense starts a new collection epoch. An object is "marked" when its
// mark bit equals the sense, so flipping the sense at the start of each
// collection un-marks every surviving object without touching memory.
func (h *Heap) FlipSense() { h.sense = !h.sense }

// IsMarkedStatus interprets a status word under the current sense.
func (h *Heap) IsMarkedStatus(status uint64) bool { return MarkOf(status) == h.sense }

// MarkAMO marks the object whose status word is at VA va with a single
// atomic, returning the previous status word — the paper's fetch-or that
// yields mark bit and #REFS in one round trip.
func (h *Heap) MarkAMO(va uint64) uint64 {
	pa := h.PA(va)
	if h.sense {
		return h.Mem.FetchOr64(pa, MarkBit)
	}
	return h.Mem.FetchAnd64(pa, ^MarkBit)
}

// AllocStatusMark returns the mark bit value for freshly allocated objects:
// equal to the current sense, so the object reads as live now and unmarked
// once the next collection flips the sense.
func (h *Heap) AllocStatusMark() bool { return h.sense }

// --- Allocation -----------------------------------------------------------

// CellBytes returns the cell size needed for an object with nrefs reference
// fields and scalarBytes of non-reference payload under the current layout.
func (h *Heap) CellBytes(nrefs, scalarBytes int) uint64 {
	payload := uint64(nrefs)*WordSize + uint64(scalarBytes+7)&^7
	switch h.cfg.Layout {
	case Bidirectional:
		return WordSize + payload
	default: // TIBLayout: TIB pointer + status word
		return 2*WordSize + payload
	}
}

// Alloc allocates an object with nrefs reference fields (initially null)
// and scalarBytes of payload. Objects that do not fit the largest size
// class go to the bump space. It returns 0 when the MarkSweep space is
// exhausted (the caller must collect).
func (h *Heap) Alloc(nrefs, scalarBytes int, array bool) Ref {
	size := h.CellBytes(nrefs, scalarBytes)
	var va uint64
	if size <= h.cfg.SizeClasses[len(h.cfg.SizeClasses)-1] {
		va = h.MS.alloc(size)
	} else {
		va = h.Bump.Alloc(size)
		if va != 0 {
			h.Bump.noteObject(va)
		}
	}
	if va == 0 {
		return 0
	}
	h.initObject(va, nrefs, scalarBytes, array)
	h.Allocations++
	h.AllocatedBytes += size
	return va
}

// AllocBump allocates directly in the bump space (immortal/large objects).
func (h *Heap) AllocBump(nrefs, scalarBytes int, array bool) Ref {
	size := h.CellBytes(nrefs, scalarBytes)
	va := h.Bump.Alloc(size)
	if va == 0 {
		return 0
	}
	h.Bump.noteObject(va)
	h.initObject(va, nrefs, scalarBytes, array)
	h.Allocations++
	h.AllocatedBytes += size
	return va
}

func (h *Heap) initObject(va uint64, nrefs, scalarBytes int, array bool) {
	status := EncodeStatus(nrefs, array, h.AllocStatusMark())
	switch h.cfg.Layout {
	case Bidirectional:
		h.Store(va, status)
		for i := 0; i < nrefs; i++ {
			h.Store(va+WordSize*uint64(1+i), 0)
		}
	default:
		tib := h.tibFor(nrefs, scalarBytes)
		h.Store(va, tib)
		h.Store(va+WordSize, status)
		for i := 0; i < nrefs; i++ {
			h.Store(h.RefSlotAddr(va, i), 0)
		}
	}
}

// tibFor returns (allocating on first use) the TIB for an object shape. The
// TIB lives in the aux space: word 0 holds the reference count, words 1..n
// the field offsets. Reference fields are interspersed with scalars (every
// other word) to model conventional layouts.
func (h *Heap) tibFor(nrefs, scalarBytes int) uint64 {
	k := tibKey{nrefs: nrefs, scalars: scalarBytes}
	if tib, ok := h.tibs[k]; ok {
		return tib
	}
	tib := h.Aux.Alloc(uint64(WordSize * (1 + nrefs)))
	if tib == 0 {
		panic("heap: aux space exhausted allocating TIB")
	}
	h.Store(tib, uint64(nrefs))
	scalarWords := (scalarBytes + 7) / 8
	for i := 0; i < nrefs; i++ {
		// Spread refs among scalars while both remain.
		var off uint64
		if i < scalarWords {
			off = uint64(2*WordSize) + uint64(i)*2*WordSize
		} else {
			off = uint64(2*WordSize) + uint64(scalarWords)*2*WordSize + uint64(i-scalarWords)*WordSize
		}
		h.Store(tib+uint64(WordSize*(1+i)), off)
	}
	h.tibs[k] = tib
	return tib
}

// --- Object accessors -------------------------------------------------------

// StatusAddr returns the VA of the object's status word.
func (h *Heap) StatusAddr(r Ref) uint64 {
	if h.cfg.Layout == Bidirectional {
		return r
	}
	return r + WordSize
}

// Status reads the object's status word.
func (h *Heap) Status(r Ref) uint64 { return h.Load(h.StatusAddr(r)) }

// NumRefsOf returns the object's reference-field count.
func (h *Heap) NumRefsOf(r Ref) int { return NumRefs(h.Status(r)) }

// IsMarked reports whether the object is marked under the current sense.
func (h *Heap) IsMarked(r Ref) bool { return h.IsMarkedStatus(h.Status(r)) }

// RefSlotAddr returns the VA of the i-th reference field.
func (h *Heap) RefSlotAddr(r Ref, i int) uint64 {
	if h.cfg.Layout == Bidirectional {
		return r + WordSize*uint64(1+i)
	}
	tib := h.Load(r)
	off := h.Load(tib + uint64(WordSize*(1+i)))
	return r + off
}

// RefAt reads the i-th reference field.
func (h *Heap) RefAt(r Ref, i int) Ref { return h.Load(h.RefSlotAddr(r, i)) }

// SetRefAt writes the i-th reference field.
func (h *Heap) SetRefAt(r Ref, i int, target Ref) { h.Store(h.RefSlotAddr(r, i), target) }

// TIBOf returns the TIB pointer (TIBLayout only).
func (h *Heap) TIBOf(r Ref) uint64 {
	if h.cfg.Layout != TIBLayout {
		panic("heap: TIBOf on bidirectional heap")
	}
	return h.Load(r)
}

// RefSpan returns the VA and byte length of the contiguous reference
// section (Bidirectional only) — what the tracer copies with unit-stride
// chunked requests.
func (h *Heap) RefSpan(r Ref, nrefs int) (va uint64, bytes uint64) {
	if h.cfg.Layout != Bidirectional {
		panic("heap: RefSpan on TIB-layout heap")
	}
	return r + WordSize, uint64(nrefs) * WordSize
}
