// Package lru is the dense replacement structure behind the simulator's
// fully-associative LRU filters (the TLBs in internal/vmem and the mark-bit
// cache in internal/cache): a fixed array of capacity slots threaded on an
// intrusive doubly-linked recency list, indexed by an open-addressed hash
// table from key to slot. Lookup, promotion, insertion, removal and
// eviction are all O(1) and allocation-free after New; Clear resets in
// place.
//
// Recency is exactly "order of last Get or Insert", so the victim is the
// same one a last-use-tick scan over the live entries would pick when every
// touch gets a fresh tick. Callers keep per-entry payload in their own
// slices indexed by the returned slot (handle-indexed storage).
package lru

// Set is a fixed-capacity set of uint64 keys in recency order.
type Set struct {
	capacity int
	n        int
	used     int32 // slots handed out at least once since the last Clear
	free     int32 // head of the free-slot chain (through next), -1 if none

	// nodes[0..capacity) are the slots; nodes[capacity] is the list
	// sentinel: its next is the most recently used slot, its prev the
	// least recently used.
	nodes []node

	// table maps a key's hash bucket to slot+1 (0 = empty), with linear
	// probing. It has at least twice as many buckets as slots, so probe
	// chains stay short and an empty bucket always ends a search.
	table []int32
	shift uint
}

type node struct {
	key        uint64
	prev, next int32
}

// New returns an empty set holding up to capacity keys. A capacity of 0 or
// less holds nothing.
func New(capacity int) *Set {
	if capacity < 0 {
		capacity = 0
	}
	buckets, bits := 2, uint(1)
	for buckets < 2*capacity {
		buckets <<= 1
		bits++
	}
	s := &Set{
		capacity: capacity,
		nodes:    make([]node, capacity+1),
		table:    make([]int32, buckets),
		shift:    64 - bits,
	}
	s.Clear()
	return s
}

// Cap returns the configured capacity.
func (s *Set) Cap() int { return s.capacity }

// Clear empties the set in place.
func (s *Set) Clear() {
	clear(s.table)
	sen := int32(s.capacity)
	s.nodes[sen].prev, s.nodes[sen].next = sen, sen
	s.n, s.used, s.free = 0, 0, -1
}

// Get looks key up. On a hit it promotes the entry to most recently used
// and returns its slot.
//
//hwgc:hotpath
func (s *Set) Get(key uint64) (slot int, ok bool) {
	_, i := s.find(key)
	if i < 0 {
		return 0, false
	}
	s.unlink(i)
	s.pushFront(i)
	return int(i), true
}

// Insert makes key the most recently used entry and returns its slot. When
// the set is full it first evicts the least recently used entry — even if
// key itself is present, in which case key keeps its slot and the set ends
// one short of full (unless key was the victim). This is the
// evict-then-overwrite order of a tick-scanned LRU table. A zero-capacity
// set holds nothing and returns -1.
//
//hwgc:hotpath
func (s *Set) Insert(key uint64) int {
	if s.capacity == 0 {
		return -1
	}
	if s.n >= s.capacity {
		s.remove(s.nodes[s.capacity].prev)
	}
	pos, i := s.find(key)
	if i >= 0 {
		s.unlink(i)
		s.pushFront(i)
		return int(i)
	}
	if s.free >= 0 {
		i = s.free
		s.free = s.nodes[i].next
	} else {
		i = s.used
		s.used++
	}
	s.nodes[i].key = key
	s.table[pos] = i + 1
	s.pushFront(i)
	s.n++
	return int(i)
}

// Remove deletes key if present.
func (s *Set) Remove(key uint64) {
	if _, i := s.find(key); i >= 0 {
		s.remove(i)
	}
}

func (s *Set) bucket(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15 >> s.shift
}

// find returns key's slot (-1 if absent) and the bucket that holds it, or
// the empty bucket where it would go.
func (s *Set) find(key uint64) (pos uint64, slot int32) {
	mask := uint64(len(s.table) - 1)
	for pos = s.bucket(key); ; pos = (pos + 1) & mask {
		v := s.table[pos]
		if v == 0 {
			return pos, -1
		}
		if s.nodes[v-1].key == key {
			return pos, v - 1
		}
	}
}

// remove unindexes slot i, unlinks it and returns it to the free chain.
func (s *Set) remove(i int32) {
	pos, _ := s.find(s.nodes[i].key)
	s.unindex(pos)
	s.unlink(i)
	s.nodes[i].next = s.free
	s.free = i
	s.n--
}

// unindex empties bucket pos and backward-shifts the rest of its probe
// chain so that every remaining key stays reachable from its home bucket.
func (s *Set) unindex(pos uint64) {
	mask := uint64(len(s.table) - 1)
	s.table[pos] = 0
	for j := (pos + 1) & mask; s.table[j] != 0; j = (j + 1) & mask {
		home := s.bucket(s.nodes[s.table[j]-1].key)
		// The entry at j may fill the hole at pos unless its home lies
		// cyclically in (pos, j].
		if pos < j && pos < home && home <= j || j < pos && (pos < home || home <= j) {
			continue
		}
		s.table[pos] = s.table[j]
		s.table[j] = 0
		pos = j
	}
}

func (s *Set) unlink(i int32) {
	n := &s.nodes[i]
	s.nodes[n.prev].next = n.next
	s.nodes[n.next].prev = n.prev
}

func (s *Set) pushFront(i int32) {
	sen := int32(s.capacity)
	head := s.nodes[sen].next
	s.nodes[i].prev, s.nodes[i].next = sen, head
	s.nodes[head].prev = i
	s.nodes[sen].next = i
}
