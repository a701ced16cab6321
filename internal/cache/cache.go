// Package cache provides the timing-only cache models used in the system:
//
//   - State: a set-associative tag array with LRU replacement (no data; the
//     functional heap lives in internal/mem, so caches only affect timing
//     and traffic counts).
//   - Sync: a blocking cache level for the trace-driven in-order CPU
//     hierarchy (L1 -> L2 -> DRAM).
//   - Event: an event-driven shared cache with a single-ported crossbar and
//     MSHRs, used to reproduce the paper's shared-vs-partitioned traversal
//     unit experiment (Figure 18).
//   - MarkBits: the small mark-bit cache / dynamic filter from Figure 21.
package cache

// LineSize is the cache line size in bytes.
const LineSize = 64

// State is a set-associative tag array with LRU replacement. Lines are
// stored set-major in one flat slice: set s occupies lines[s*ways:][:ways].
type State struct {
	sets    int
	ways    int
	lines   []line
	lruTick uint64

	Hits   uint64
	Misses uint64
}

// line is one way of one set.
type line struct {
	tag   uint64 // 0 = invalid (tag stored +1)
	lru   uint64 // tick of the last access
	dirty bool
}

// NewState returns a cache with the given total size and associativity.
// size must be a multiple of ways*LineSize.
func NewState(size, ways int) *State {
	if ways <= 0 {
		ways = 1
	}
	sets := size / (ways * LineSize)
	if sets <= 0 {
		sets = 1
	}
	return &State{sets: sets, ways: ways, lines: make([]line, sets*ways)}
}

// Sets returns the number of sets.
func (s *State) Sets() int { return s.sets }

func (s *State) index(addr uint64) (set int, tag uint64) {
	line := addr / LineSize
	return int(line % uint64(s.sets)), line/uint64(s.sets) + 1
}

// Access looks up addr, updating LRU and hit/miss counters. When the line
// is absent it is inserted; the return values report whether it hit and
// whether a dirty victim was evicted (requiring a write-back).
//
//hwgc:hotpath
func (s *State) Access(addr uint64, write bool) (hit, writeback bool) {
	set, tag := s.index(addr)
	ways := s.lines[set*s.ways:][:s.ways]
	s.lruTick++
	for w := range ways {
		if l := &ways[w]; l.tag == tag {
			l.lru = s.lruTick
			if write {
				l.dirty = true
			}
			s.Hits++
			return true, false
		}
	}
	s.Misses++
	// Victim: invalid way first, else LRU.
	victim := 0
	var oldest uint64 = ^uint64(0)
	for w := range ways {
		if ways[w].tag == 0 {
			victim = w
			break
		}
		if ways[w].lru < oldest {
			oldest = ways[w].lru
			victim = w
		}
	}
	v := &ways[victim]
	writeback = v.tag != 0 && v.dirty
	*v = line{tag: tag, lru: s.lruTick, dirty: write}
	return false, writeback
}

// Contains reports whether addr's line is present without updating state.
func (s *State) Contains(addr uint64) bool {
	set, tag := s.index(addr)
	for _, l := range s.lines[set*s.ways:][:s.ways] {
		if l.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache, returning the number of dirty lines
// that would be written back. LRU ticks are kept.
func (s *State) Flush() int {
	dirty := 0
	for i := range s.lines {
		l := &s.lines[i]
		if l.tag != 0 && l.dirty {
			dirty++
		}
		l.tag = 0
		l.dirty = false
	}
	return dirty
}
