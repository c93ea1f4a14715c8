package main

import (
	"sort"

	"mpcquery/internal/relation"
)

// cost is the model cost (L, r, C) of one execution, as metered by mpc.
type cost struct {
	l int64
	r int
	c int64
}

func (c *cost) add(o cost) {
	c.l += o.l
	c.r += o.r
	c.c += o.c
}

// rowHash mixes one tuple into 64 bits; equal tuples hash equal whatever
// their position in the output.
func rowHash(row []relation.Value) uint64 {
	h := uint64(len(row)) * 0x9e3779b97f4a7c15
	for _, v := range row {
		h ^= uint64(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// checksum is the order-independent checksum of a relation: the wrapping sum
// of its rows' hashes.
func checksum(r *relation.Relation) uint64 {
	var s uint64
	for i := 0; i < r.Len(); i++ {
		s += rowHash(r.Row(i))
	}
	return s
}

// expectation is what one op must produce: the oracle's row count, the
// checksum of the full output, and the model cost of the reference run.
// members, when set, holds the truncated hashes of every oracle row, sorted,
// for front doors that return only a prefix of the output: each returned row
// must be one of them. It is 4 bytes a row and pointer-free, so the harness
// adds almost nothing to the heap the product's GC sees.
type expectation struct {
	rows    int
	sum     uint64
	cost    cost
	members []uint32
}

func expect(oracle *relation.Relation, c cost, withMembers bool) expectation {
	e := expectation{rows: oracle.Len(), sum: checksum(oracle), cost: c}
	if withMembers {
		e.members = make([]uint32, oracle.Len())
		for i := range e.members {
			e.members[i] = uint32(rowHash(oracle.Row(i)))
		}
		sort.Slice(e.members, func(a, b int) bool { return e.members[a] < e.members[b] })
	}
	return e
}

func (e *expectation) hasMember(row []relation.Value) bool {
	h := uint32(rowHash(row))
	i := sort.Search(len(e.members), func(i int) bool { return e.members[i] >= h })
	return i < len(e.members) && e.members[i] == h
}

// checkFull verifies a complete output relation.
func (e *expectation) checkFull(out *relation.Relation, c cost) bool {
	return out.Len() == e.rows && checksum(out) == e.sum && c == e.cost
}

// checkPrefix verifies a front door that reports the total row count but
// returns at most limit rows.
func (e *expectation) checkPrefix(total int, rows [][]relation.Value, limit int, c cost) bool {
	want := e.rows
	if want > limit {
		want = limit
	}
	if total != e.rows || c != e.cost || len(rows) != want {
		return false
	}
	for _, row := range rows {
		if !e.hasMember(row) {
			return false
		}
	}
	return true
}
