package workload

import (
	"hwgc/internal/heap"
	"hwgc/internal/rts"
	"hwgc/internal/sim"
)

// App is the running application model: it owns a benchmark's object graph
// inside a system's heap and mutates it the way the benchmark would.
//
// The live set is organized as a fixed number of retained chains hanging
// from the root objects' reference slots. Churn replaces random chain
// positions in place: the new object inherits the old one's chain child, so
// the spine stays intact, the replaced object (and whatever hung off it)
// dies, and the reachable set stays near the spec's LiveObjects in steady
// state — the property the repeated-GC experiments depend on. Unlinked
// allocations are garbage; extra reference fields point at hot objects
// (Zipf-skewed, Figure 21a) and recent same-generation allocations.
type App struct {
	Spec Spec
	sys  *rts.System
	rand *sim.Rand
	zipf *sim.Zipf

	roots  []heap.Ref   // long-lived root objects (become GC roots)
	hot    []heap.Ref   // high in-degree objects
	chains [][]heap.Ref // retained spine: chains[c][i]
	recent []heap.Ref   // ring of newest live allocations

	// AllocatedBytes counts bytes allocated through the app.
	AllocatedBytes uint64
	// AllocFailures counts allocations refused by a full heap.
	AllocFailures uint64
	// Replacements counts in-place chain replacements (retained churn).
	Replacements uint64
}

// chainSlots is how many of each root's 8 reference slots anchor chains
// (slot 6 anchors a hot object, slot 7 a large object).
const chainSlots = 6

// NewApp builds an application model over sys.
func NewApp(sys *rts.System, spec Spec, seed uint64) *App {
	a := &App{Spec: spec, sys: sys, rand: sim.NewRand(seed)}
	if spec.HotObjects > 0 {
		a.zipf = sim.NewZipf(a.rand, spec.HotObjects, 1.1)
	}
	return a
}

// CloneFor returns an application model over sys (a snapshot clone of the
// system this app populated) that continues exactly where the receiver
// stands: same RNG position, same graph bookkeeping, same counters. A
// clone's subsequent Churn/WriteRoots sequence is bit-identical to what the
// original would have produced. The Zipf CDF table is immutable and shared;
// the chains share one flat backing array.
func (a *App) CloneFor(sys *rts.System) *App {
	c := &App{
		Spec:           a.Spec,
		sys:            sys,
		rand:           a.rand.Clone(),
		roots:          append([]heap.Ref(nil), a.roots...),
		hot:            append([]heap.Ref(nil), a.hot...),
		recent:         append([]heap.Ref(nil), a.recent...),
		AllocatedBytes: a.AllocatedBytes,
		AllocFailures:  a.AllocFailures,
		Replacements:   a.Replacements,
	}
	if a.zipf != nil {
		c.zipf = a.zipf.CloneFor(c.rand)
	}
	if len(a.chains) > 0 {
		total := 0
		for _, ch := range a.chains {
			total += len(ch)
		}
		flat := make([]heap.Ref, total)
		c.chains = make([][]heap.Ref, len(a.chains))
		off := 0
		for i, ch := range a.chains {
			n := copy(flat[off:off+len(ch)], ch)
			c.chains[i] = flat[off : off+n : off+n]
			off += n
		}
	}
	return c
}

// refCount samples an object's reference-field count; chain nodes need at
// least one field for the spine.
func (a *App) refCount(array bool) int {
	if array {
		return 2 + a.rand.Geometric(a.Spec.AvgRefs*3)
	}
	return a.rand.Geometric(a.Spec.AvgRefs)
}

// alloc creates one object and returns it (0 when the heap is full).
func (a *App) alloc(minRefs int) heap.Ref {
	array := a.rand.Float64() < a.Spec.ArrayFraction
	nrefs := a.refCount(array)
	if nrefs < minRefs {
		nrefs = minRefs
	}
	scalars := 0
	if !array {
		scalars = a.rand.Geometric(float64(a.Spec.ScalarBytes))
	}
	o := a.sys.Heap.Alloc(nrefs, scalars, array)
	if o == 0 {
		a.AllocFailures++
		return 0
	}
	a.AllocatedBytes += a.sys.Heap.CellBytes(nrefs, scalars)
	return o
}

// decorate fills o's reference fields beyond fromSlot with hot-object
// references and records o in the recent ring. Live objects only reference
// the (permanently live) hot set beyond their chain edge — back-edges from
// live objects into recent allocations would build unbounded retention
// cascades and the heap would never reach a steady state. Garbage objects
// are the ones that point into the recent ring (dead incoming edges, which
// the collectors must ignore).
func (a *App) decorate(o heap.Ref, fromSlot int) {
	h := a.sys.Heap
	n := h.NumRefsOf(o)
	for i := fromSlot; i < n; i++ {
		if a.zipf != nil && a.rand.Float64() < a.Spec.HotFraction {
			h.SetRefAt(o, i, a.hot[a.zipf.Next()])
		}
	}
	if len(a.recent) < 32 {
		a.recent = append(a.recent, o)
	} else {
		a.recent[a.rand.Intn(len(a.recent))] = o
	}
}

// chainAnchor returns the parent object and slot index anchoring position i
// of chain c.
func (a *App) chainAnchor(c, i int) (heap.Ref, int) {
	if i == 0 {
		root := a.roots[c/chainSlots]
		return root, c % chainSlots
	}
	return a.chains[c][i-1], 0
}

// Populate builds the initial graph: root objects, hot objects, large
// objects, the retained chains, and interleaved garbage per the spec. It
// returns false if the heap filled before the target live size was reached.
func (a *App) Populate() bool {
	h := a.sys.Heap
	for i := 0; i < a.Spec.Roots; i++ {
		r := h.Alloc(8, 0, true)
		if r == 0 {
			return false
		}
		a.roots = append(a.roots, r)
	}
	for i := 0; i < a.Spec.HotObjects; i++ {
		o := h.Alloc(1, 8, false)
		if o == 0 {
			return false
		}
		a.hot = append(a.hot, o)
		h.SetRefAt(a.roots[i%len(a.roots)], 6, o)
	}
	for i := 0; i < a.Spec.LargeObjects; i++ {
		lo := h.AllocBump(4, 12<<10, true)
		if lo != 0 {
			h.SetRefAt(a.roots[i%len(a.roots)], 7, lo)
		}
	}

	numChains := len(a.roots) * chainSlots
	chainLen := (a.Spec.LiveObjects + numChains - 1) / numChains
	a.chains = make([][]heap.Ref, numChains)
	for c := range a.chains {
		a.chains[c] = make([]heap.Ref, chainLen)
	}
	// Allocate the chain nodes in shuffled order, wiring the graph
	// afterwards: graph neighbours must not be memory neighbours, or the
	// traversal would enjoy cache locality real heaps do not have (the
	// paper: GC "cannot make effective use of caches").
	order := make([]int, numChains*chainLen)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := a.rand.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, idx := range order {
		o := a.alloc(1)
		if o == 0 {
			return false
		}
		a.chains[idx%numChains][idx/numChains] = o
		a.decorate(o, 1)
		// Interleave garbage so blocks carry a live/dead mix.
		if a.rand.Float64() < a.Spec.GarbageFraction {
			if g := a.alloc(0); g == 0 {
				return false
			}
		}
	}
	for c := 0; c < numChains; c++ {
		for i := 0; i < chainLen; i++ {
			parent, slot := a.chainAnchor(c, i)
			h.SetRefAt(parent, slot, a.chains[c][i])
		}
	}
	return true
}

// replace swaps a random chain position for a fresh object: the new object
// inherits the old one's chain child, the old object dies (along with its
// hot/recent decoration edges).
func (a *App) replace() bool {
	h := a.sys.Heap
	c := a.rand.Intn(len(a.chains))
	if len(a.chains[c]) == 0 {
		return true
	}
	i := a.rand.Intn(len(a.chains[c]))
	o := a.alloc(1)
	if o == 0 {
		return false
	}
	parent, slot := a.chainAnchor(c, i)
	h.SetRefAt(parent, slot, o)
	if i+1 < len(a.chains[c]) {
		h.SetRefAt(o, 0, a.chains[c][i+1])
	}
	a.chains[c][i] = o
	a.decorate(o, 1)
	a.Replacements++
	return true
}

// Churn allocates roughly budget bytes: a (1-GarbageFraction) share
// replaces retained chain positions, the rest is immediate garbage. It
// returns false when the heap fills first (time to collect).
func (a *App) Churn(budget uint64) bool {
	start := a.AllocatedBytes
	for a.AllocatedBytes-start < budget {
		if a.rand.Float64() < 1-a.Spec.GarbageFraction {
			if !a.replace() {
				return false
			}
			continue
		}
		g := a.alloc(0)
		if g == 0 {
			return false
		}
		// Garbage may still point at live data (dead incoming edges
		// must not confuse the collectors).
		if n := a.sys.Heap.NumRefsOf(g); n > 0 && len(a.recent) > 0 {
			a.sys.Heap.SetRefAt(g, 0, a.recent[a.rand.Intn(len(a.recent))])
		}
	}
	return true
}

// WriteRoots performs the software root scan: it resets the hwgc-space and
// writes the application's roots into it.
func (a *App) WriteRoots() {
	a.sys.Roots.Reset()
	for _, r := range a.roots {
		a.sys.Roots.Add(r)
	}
}

// PruneDeadPool drops unreachable objects from the recent ring after a
// collection so the mutator does not resurrect freed cells. (Chain nodes
// are reachable by construction.) Call with the reachable set from before
// the sweep.
func (a *App) PruneDeadPool(reach map[heap.Ref]bool) {
	keep := a.recent[:0]
	for _, o := range a.recent {
		if reach[o] {
			keep = append(keep, o)
		}
	}
	a.recent = keep
}

// Roots returns the application's root objects.
func (a *App) Roots() []heap.Ref { return a.roots }

// Hot returns the hot objects (tests).
func (a *App) Hot() []heap.Ref { return a.hot }
