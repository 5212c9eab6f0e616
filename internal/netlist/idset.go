package netlist

import "slices"

// IDSet is a reusable dense set of instance or net IDs: a mark per ID
// and the members in the order they were added. Made for the design's
// ID capacity (IDCap), its first Add allocates the marks for all of it,
// and every ID an editing run adds after that fits; one beyond grows it
// geometrically. A set nothing is added to allocates nothing.
type IDSet struct {
	in   []bool
	ids  []int
	out  []int // SortedBelow's result
	room int   // the IDs the first Add makes room for
}

// NewIDSet returns an empty set with room for the IDs below n.
func NewIDSet(n int) IDSet { return IDSet{room: n} }

// Add puts id in the set.
func (s *IDSet) Add(id int) {
	if id >= len(s.in) {
		s.in = append(s.in, make([]bool, max(id+1, s.room)-len(s.in))...)
	}
	if !s.in[id] {
		s.in[id] = true
		s.ids = append(s.ids, id)
	}
}

// Has reports whether id is in the set.
func (s *IDSet) Has(id int) bool { return id >= 0 && id < len(s.in) && s.in[id] }

// Remove takes id out of the set.
func (s *IDSet) Remove(id int) {
	if s.Has(id) {
		s.in[id] = false
		i := slices.Index(s.ids, id)
		s.ids = slices.Delete(s.ids, i, i+1)
	}
}

// Len is the number of members.
func (s *IDSet) Len() int { return len(s.ids) }

// Members returns the members in the order they were added. The slice
// is the set's own: valid until the next Add, Remove or Reset.
func (s *IDSet) Members() []int { return s.ids }

// Reset empties the set, keeping its buffers.
func (s *IDSet) Reset() {
	for _, id := range s.ids {
		s.in[id] = false
	}
	s.ids = s.ids[:0]
}

// SortedBelow returns the members below limit in ascending order, in a
// buffer the set reuses: valid until the next call.
func (s *IDSet) SortedBelow(limit int) []int {
	out := s.out[:0]
	for _, id := range s.ids {
		if id < limit {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	s.out = out
	return out
}

// Sorted returns every member in ascending order, as SortedBelow.
func (s *IDSet) Sorted() []int { return s.SortedBelow(int(^uint(0) >> 1)) }
