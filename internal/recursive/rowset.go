package recursive

import (
	"math/bits"
	"slices"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// rowSet is the membership index of one fragment: an open-addressed
// table of int32 slots, each 0 (empty) or 1 + the position of a row in
// the fragment it indexes. Rows stay in the fragment, so no key is
// copied, and a lookup compares the probe against the stored row
// itself. Every call takes the indexed fragment as an argument; the
// set only stays valid while that fragment changes by its own appends.
// A compaction that rewrites the fragment is followed by build over
// the result. Positions are int32, as in relation.Index.
//
// The zero value is an empty set. A set decides no order: add appends
// to the fragment, so a fragment filled through a set holds its rows in
// first-occurrence order, the same on every run.
type rowSet struct {
	slots []int32 // len is 0 or a power of two; at most half are full
	shift uint    // 64 - log2(len(slots)): a hash's top bits pick the home slot
	n     int     // full slots
}

// rowSetMinSlots is a fresh table's size.
const rowSetMinSlots = 16

// rowHash mixes a row's values: a multiply-xorshift per value, so the
// top bits the table indexes by depend on every column.
func rowHash(row []relation.Value) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		h = (h ^ uint64(v)) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h * 0x94d049bb133111eb
}

// find returns the slot holding row, or the empty slot where it would
// go. The table must not be empty.
func (s *rowSet) find(rel *relation.Relation, row []relation.Value) (slot int, found bool) {
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

// has reports whether rel, indexed by s, holds row.
func (s *rowSet) has(rel *relation.Relation, row []relation.Value) bool {
	if s.n == 0 {
		return false
	}
	_, found := s.find(rel, row)
	return found
}

// add appends row to rel and indexes it unless rel already holds it.
// It returns row's position in rel and whether it appended the row.
func (s *rowSet) add(rel *relation.Relation, row []relation.Value) (pos int, added bool) {
	if 2*(s.n+1) > len(s.slots) {
		s.rehash(rel, max(2*len(s.slots), rowSetMinSlots))
	}
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

// rehash moves every indexed row of rel into a fresh table of size
// slots, where size is a power of two.
func (s *rowSet) rehash(rel *relation.Relation, size int) {
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

// reset empties the set and keeps its table, for a fragment that is
// emptied and refilled.
func (s *rowSet) reset() {
	clear(s.slots)
	s.n = 0
}

// build makes s index rel from scratch, keeping its table when rel
// fits. When rel holds a row more than once, the first copy is
// indexed.
func (s *rowSet) build(rel *relation.Relation) {
	s.reset()
	if need := 2 * rel.Len(); need > len(s.slots) {
		s.rehash(rel, max(1<<bits.Len(uint(need-1)), rowSetMinSlots))
	}
	for pos := 0; pos < rel.Len(); pos++ {
		row := rel.Row(pos)
		if slot, found := s.find(rel, row); !found {
			s.slots[slot] = int32(pos + 1)
			s.n++
		}
	}
}

// indexed is a distributed fragment together with its per-server row
// sets: sets[i] indexes the fragment named name on server i.
type indexed struct {
	name string
	sets []rowSet
}

func newIndexed(name string, p int) indexed {
	return indexed{name: name, sets: make([]rowSet, p)}
}

// at returns server s's fragment and the row set over it.
func (x indexed) at(s *mpc.Server, attrs []string) (*relation.Relation, *rowSet) {
	return s.RelOrEmpty(x.name, attrs...), &x.sets[s.ID()]
}

// absorbNew appends to acc, indexed by set, every row of cands that keep
// admits (nil admits all) and acc does not hold yet, and returns the
// appended rows as the relation deltaName: a read-only view of acc's
// storage (relation.Tail), which later appends to acc leave alone. acc
// is reserved once, for every candidate, and at least doubles when it
// grows, so a fixpoint reallocates it a logarithmic number of times.
func absorbNew(acc *relation.Relation, set *rowSet, cands *relation.Relation, keep func([]relation.Value) bool, deltaName string) *relation.Relation {
	if need, room := cands.Words(), acc.Cap()-acc.Words(); need > room {
		acc.Grow(max(need, acc.Cap()+room))
	}
	start := acc.Len()
	for i := 0; i < cands.Len(); i++ {
		row := cands.Row(i)
		if keep == nil || keep(row) {
			set.add(acc, row)
		}
	}
	return acc.Tail(deltaName, start)
}
