package cache

import (
	"testing"

	"hwgc/internal/sim"
)

// refMarkBits is the original map-and-scan mark-bit filter, kept as the
// reference model the dense filter must match probe for probe.
type refMarkBits struct {
	capacity      int
	slots         map[uint64]uint64 // addr -> last-use tick
	tick          uint64
	Lookups, Hits uint64
}

func newRefMarkBits(capacity int) *refMarkBits {
	return &refMarkBits{capacity: capacity, slots: make(map[uint64]uint64, capacity)}
}

func (m *refMarkBits) Probe(addr uint64) bool {
	m.Lookups++
	if m.capacity == 0 {
		return false
	}
	m.tick++
	if _, ok := m.slots[addr]; ok {
		m.slots[addr] = m.tick
		m.Hits++
		return true
	}
	if len(m.slots) >= m.capacity {
		var lruAddr uint64
		lru := ^uint64(0)
		for a, t := range m.slots {
			if t < lru {
				lru = t
				lruAddr = a
			}
		}
		delete(m.slots, lruAddr)
	}
	m.slots[addr] = m.tick
	return false
}

func (m *refMarkBits) Reset() {
	m.slots = make(map[uint64]uint64, m.capacity)
	m.tick, m.Lookups, m.Hits = 0, 0, 0
}

// TestMarkBitsMatchesReference compares probe results and counters of the
// dense filter against the reference over seeded streams with a skewed
// address mix (a hot set plus a cold tail), with occasional resets.
func TestMarkBitsMatchesReference(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 7, 56, 128} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := sim.NewRand(seed*1000 + uint64(capacity))
			got, want := NewMarkBits(capacity), newRefMarkBits(capacity)
			for op := 0; op < 20000; op++ {
				if rng.Intn(2000) == 0 {
					got.Reset()
					want.Reset()
					continue
				}
				addr := uint64(rng.Intn(capacity/2+1)) * 16 // hot set
				if rng.Intn(3) == 0 {
					addr = uint64(rng.Intn(4*capacity+8)) * 16
				}
				if g, w := got.Probe(addr), want.Probe(addr); g != w {
					t.Fatalf("cap %d seed %d op %d: Probe(%#x) = %v, reference %v", capacity, seed, op, addr, g, w)
				}
			}
			if got.Lookups != want.Lookups || got.Hits != want.Hits {
				t.Fatalf("cap %d seed %d: lookups/hits %d/%d, reference %d/%d",
					capacity, seed, got.Lookups, got.Hits, want.Lookups, want.Hits)
			}
		}
	}
}

// refState is the original per-set [][] tag array, kept as the reference
// model for the flat set-major State.
type refState struct {
	sets, ways   int
	tags         [][]uint64
	dirty        [][]bool
	lru          [][]uint64
	lruTick      uint64
	Hits, Misses uint64
}

func newRefState(size, ways int) *refState {
	sets := size / (ways * LineSize)
	s := &refState{sets: sets, ways: ways}
	for i := 0; i < sets; i++ {
		s.tags = append(s.tags, make([]uint64, ways))
		s.dirty = append(s.dirty, make([]bool, ways))
		s.lru = append(s.lru, make([]uint64, ways))
	}
	return s
}

func (s *refState) Access(addr uint64, write bool) (hit, writeback bool) {
	line := addr / LineSize
	set, tag := int(line%uint64(s.sets)), line/uint64(s.sets)+1
	s.lruTick++
	for w := 0; w < s.ways; w++ {
		if s.tags[set][w] == tag {
			s.lru[set][w] = s.lruTick
			if write {
				s.dirty[set][w] = true
			}
			s.Hits++
			return true, false
		}
	}
	s.Misses++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for w := 0; w < s.ways; w++ {
		if s.tags[set][w] == 0 {
			victim = w
			break
		}
		if s.lru[set][w] < oldest {
			oldest = s.lru[set][w]
			victim = w
		}
	}
	writeback = s.tags[set][victim] != 0 && s.dirty[set][victim]
	s.tags[set][victim] = tag
	s.dirty[set][victim] = write
	s.lru[set][victim] = s.lruTick
	return false, writeback
}

func (s *refState) Flush() int {
	dirty := 0
	for set := range s.tags {
		for w := range s.tags[set] {
			if s.tags[set][w] != 0 && s.dirty[set][w] {
				dirty++
			}
			s.tags[set][w] = 0
			s.dirty[set][w] = false
		}
	}
	return dirty
}

// TestStateMatchesReference compares hit, write-back and flush results of
// the flat tag array against the reference over seeded access streams on
// several geometries, including direct-mapped and fully-associative.
func TestStateMatchesReference(t *testing.T) {
	geoms := []struct{ size, ways int }{{1024, 1}, {1024, 2}, {4096, 4}, {8 * LineSize, 8}, {16 << 10, 8}}
	for _, g := range geoms {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := sim.NewRand(seed)
			got, want := NewState(g.size, g.ways), newRefState(g.size, g.ways)
			span := 3 * g.size
			for op := 0; op < 20000; op++ {
				if rng.Intn(5000) == 0 {
					if gd, wd := got.Flush(), want.Flush(); gd != wd {
						t.Fatalf("%+v seed %d op %d: Flush = %d, reference %d", g, seed, op, gd, wd)
					}
					continue
				}
				addr, write := uint64(rng.Intn(span)), rng.Intn(3) == 0
				gh, gw := got.Access(addr, write)
				wh, ww := want.Access(addr, write)
				if gh != wh || gw != ww {
					t.Fatalf("%+v seed %d op %d: Access(%#x,%v) = %v,%v, reference %v,%v",
						g, seed, op, addr, write, gh, gw, wh, ww)
				}
				if c := got.Contains(addr); !c {
					t.Fatalf("%+v: line %#x absent right after access", g, addr)
				}
			}
			if got.Hits != want.Hits || got.Misses != want.Misses {
				t.Fatalf("%+v seed %d: hits/misses %d/%d, reference %d/%d",
					g, seed, got.Hits, got.Misses, want.Hits, want.Misses)
			}
		}
	}
}

// TestDenseZeroAllocs guards the steady state of the per-access structures:
// tag probes and mark-bit filter probes (with evictions) allocate nothing.
func TestDenseZeroAllocs(t *testing.T) {
	s := NewState(4096, 4)
	mb := NewMarkBits(56)
	addr := uint64(0)
	step := func() {
		for i := 0; i < 64; i++ {
			addr += 40
			s.Access(addr, i%3 == 0)
			mb.Probe(addr % 4096)
		}
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("State.Access/MarkBits.Probe allocate %.1f per run, want 0", allocs)
	}
}
