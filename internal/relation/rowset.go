package relation

import (
	"math/bits"
	"slices"
)

// RowSet is the membership index of one relation: an open-addressed
// table of int32 slots, each 0 (empty) or 1 + the position of a row in
// the relation it indexes. Rows stay in the relation, so no key is
// copied, and a lookup compares the probe against the stored row
// itself. Every call takes the indexed relation as an argument; the set
// only stays valid while that relation changes by its own appends. A
// compaction that rewrites the relation is followed by Build over the
// result. Positions are int32, as in Index.
//
// The zero value is an empty set. A set decides no order: Add appends
// to the relation, so a relation filled through a set holds its rows
// in first-occurrence order, the same on every run.
type RowSet struct {
	slots []int32 // len is 0 or a power of two; at most half are full
	shift uint    // 64 - log2(len(slots)): a hash's top bits pick the home slot
	n     int     // full slots
}

// rowSetMinSlots is a fresh table's size.
const rowSetMinSlots = 16

// rowHash mixes a row's values: a multiply-xorshift per value, so the
// top bits the table indexes by depend on every column.
func rowHash(row []Value) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		h = (h ^ uint64(v)) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h * 0x94d049bb133111eb
}

// find returns the slot holding row, or the empty slot where it would
// go. The table must not be empty.
func (s *RowSet) find(rel *Relation, row []Value) (slot int, found bool) {
	mask := len(s.slots) - 1
	for i := int(rowHash(row) >> s.shift); ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			return i, false
		}
		if slices.Equal(rel.Row(int(e-1)), row) {
			return i, true
		}
	}
}

// Has reports whether rel, indexed by s, holds row.
func (s *RowSet) Has(rel *Relation, row []Value) bool {
	if s.n == 0 {
		return false
	}
	_, found := s.find(rel, row)
	return found
}

// Add appends row to rel and indexes it unless rel already holds it.
// It returns row's position in rel and whether it appended the row.
func (s *RowSet) Add(rel *Relation, row []Value) (pos int, added bool) {
	s.Reserve(rel, s.n+1)
	slot, found := s.find(rel, row)
	if found {
		return int(s.slots[slot] - 1), false
	}
	pos = rel.Len()
	s.slots[slot] = int32(pos + 1)
	s.n++
	rel.AppendRow(row)
	return pos, true
}

// Reserve makes room for n rows in all, so the adds that bring the set
// to n rows rehash nothing. A table it grows at least doubles, so a set
// reserved step by step, as Add reserves it, is rebuilt a logarithmic
// number of times.
func (s *RowSet) Reserve(rel *Relation, n int) {
	if 2*n > len(s.slots) {
		s.rehash(rel, n)
	}
}

// rehash moves every indexed row of rel into a fresh table: the least
// power of two of at least 2n slots, twice the old table and
// rowSetMinSlots.
func (s *RowSet) rehash(rel *Relation, n int) {
	size := max(1<<bits.Len(uint(2*n-1)), 2*len(s.slots), rowSetMinSlots)
	old := s.slots
	s.slots = make([]int32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(rowHash(rel.Row(int(e-1))) >> s.shift)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

// Reset empties the set and keeps its table, for a relation that is
// emptied and refilled.
func (s *RowSet) Reset() {
	clear(s.slots)
	s.n = 0
}

// Build makes s index rel from scratch, keeping its table when rel
// fits. When rel holds a row more than once, the first copy is
// indexed.
func (s *RowSet) Build(rel *Relation) {
	s.Reset()
	s.Reserve(rel, rel.Len())
	for pos := range rel.Len() {
		if slot, found := s.find(rel, rel.Row(pos)); !found {
			s.slots[slot] = int32(pos + 1)
			s.n++
		}
	}
}

// Distinct returns r as a set: r itself, untouched, when no row
// repeats, and otherwise a new relation of r's name and schema holding
// the first occurrence of each row, in r's order. This is where a
// relation enters the system: every algorithm assumes set inputs. Its
// table is its own, so nothing outlives the call but the result.
func (r *Relation) Distinct() *Relation {
	var set RowSet
	set.Build(r)
	if set.n == r.Len() {
		return r
	}
	out := New(r.name, r.attrs...)
	set.Reset()
	for pos := 0; pos < r.Len(); pos++ {
		set.Add(out, r.Row(pos))
	}
	return out
}
