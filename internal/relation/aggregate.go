package relation

import (
	"math/bits"
	"sort"
)

// Aggregation operators. Grouping is all the tutorial needs: the SQL
// formulation of matrix multiplication (slide 108) and the grouped-join
// example (slide 52) are GROUP BY ... SUM queries.

// AggFunc identifies an aggregate.
type AggFunc int

// Supported aggregates.
const (
	Sum AggFunc = iota
	Count
	Min
	Max
)

// GroupBy groups r by the groupAttrs and aggregates aggAttr with fn.
// The output schema is groupAttrs followed by outAttr. For Count,
// aggAttr may be empty. Output rows are sorted ascending by group key,
// compared numerically as tuples (a historical version sorted by the
// little-endian EncodeKey bytes instead, which disagrees with numeric
// order for values ≥ 256 or < 0).
//
// The grouping runs on the radix hash kernel: rows are hashed on the
// group columns, partitioned by the high hash bits, and accumulated in
// per-partition open-addressing tables with full key verification on
// every hash hit. Accumulators live in flat arena arrays recycled
// across calls.
func GroupBy(name string, r *Relation, groupAttrs []string, fn AggFunc, aggAttr, outAttr string) *Relation {
	gcols := r.MustCols(groupAttrs)
	acol := -1
	if fn != Count {
		acol = r.MustCol(aggAttr)
	}
	n := r.Len()
	checkRowCount("GroupBy", n)
	k := len(gcols)

	a := getArena()
	defer putArena(a)
	hashes := arenaU64(&a.hashes, n)
	for i := 0; i < n; i++ {
		hashes[i] = kernelRowHash(r.Row(i), gcols, kernelSeed)
	}
	nparts := radixParts(n)
	shift := uint(64 - bits.TrailingZeros(uint(nparts)))
	ordRows, ordHash, pcnt := partitionScatter(a, hashes, nparts, shift)

	pOff, pMask, total := sizeRegions(a, pcnt)
	slots := arenaGSlots(&a.gslots, total)
	keys := a.keys[:0]
	aggs := a.aggs[:0]
	cnts := a.cnts[:0]

	update := func(row []Value, h uint64) {
		p := h >> shift
		base, mask := pOff[p], pMask[p]
		j := h & mask
		g := -1
		for {
			s := &slots[base+int(j)]
			if s.gid == 0 {
				g = len(cnts)
				s.hash, s.gid = h, int32(g)+1
				for _, c := range gcols {
					keys = append(keys, row[c])
				}
				switch fn {
				case Min, Max:
					aggs = append(aggs, row[acol])
				default:
					aggs = append(aggs, 0)
				}
				cnts = append(cnts, 0)
				break
			}
			if s.hash == h {
				// Verify the full key against the stored group: equal
				// hashes never merge distinct keys.
				cand := int(s.gid) - 1
				eq := true
				for ci, c := range gcols {
					if keys[cand*k+ci] != row[c] {
						eq = false
						break
					}
				}
				if eq {
					g = cand
					break
				}
			}
			j = (j + 1) & mask
		}
		cnts[g]++
		switch fn {
		case Sum:
			aggs[g] += row[acol]
		case Min:
			if row[acol] < aggs[g] {
				aggs[g] = row[acol]
			}
		case Max:
			if row[acol] > aggs[g] {
				aggs[g] = row[acol]
			}
		}
	}
	if ordRows == nil {
		for i := 0; i < n; i++ {
			update(r.Row(i), hashes[i])
		}
	} else {
		for i, row := range ordRows {
			update(r.Row(int(row)), ordHash[i])
		}
	}
	a.keys, a.aggs, a.cnts = keys, aggs, cnts

	// Sort groups by key tuple — numeric comparison, not encoded bytes.
	ng := len(cnts)
	order := arenaI32(&a.order, ng)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(x, y int) bool {
		ka := keys[int(order[x])*k : int(order[x])*k+k]
		kb := keys[int(order[y])*k : int(order[y])*k+k]
		for i := 0; i < k; i++ {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	})

	// Bulk emit into exactly presized storage.
	out := New(name, append(append([]string(nil), groupAttrs...), outAttr)...)
	out.data = make([]Value, ng*(k+1))
	w := 0
	for _, gi := range order {
		g := int(gi)
		w += copy(out.data[w:], keys[g*k:g*k+k])
		if fn == Count {
			out.data[w] = Value(cnts[g])
		} else {
			out.data[w] = aggs[g]
		}
		w++
	}
	return out
}

// Distinct returns the distinct values of attr, sorted ascending. The
// dedup runs on an open-addressing value set (hash + full value
// verification) instead of a Go map; only the result slice is
// allocated.
func Distinct(r *Relation, attr string) []Value {
	c := r.MustCol(attr)
	n := r.Len()
	checkRowCount("Distinct", n)
	a := getArena()
	defer putArena(a)
	size := nextPow2(2 * n)
	if size < 4 {
		size = 4
	}
	slots := arenaGSlots(&a.gslots, size)
	mask := uint64(size - 1)
	vals := make([]Value, 0, 16)
	for i := 0; i < n; i++ {
		v := r.Row(i)[c]
		h := kernelValHash(v, kernelSeed)
		j := h & mask
		for {
			s := &slots[j]
			if s.gid == 0 {
				s.hash, s.gid = h, int32(len(vals))+1
				vals = append(vals, v)
				break
			}
			if s.hash == h && vals[s.gid-1] == v {
				break
			}
			j = (j + 1) & mask
		}
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	return vals
}
