package relation

import "math/bits"

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
// across calls. GroupBy keeps its own table rather than the join index's
// insert: its collision check compares against a compact copy of the
// group keys, where the index's compares against the relation's rows,
// and it aggregates in the same pass (on the index's insert,
// BenchmarkGroupBy measured 8.5 → 10.5 ms).
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
	hashes := a.u64.take(n)
	for i := 0; i < n; i++ {
		hashes[i] = kernelRowHash(r.Row(i), gcols, kernelSeed)
	}
	nparts := radixParts(n)
	shift := uint(64 - bits.TrailingZeros(uint(nparts)))
	ordRows, ordHash, pcnt := partitionScatter(a, hashes, nparts, shift)

	pOff, pMask, total := sizeRegions(a, pcnt)
	slots := a.gslots.takeZero(total)
	// At most one group per row, so the group arrays never outgrow
	// their slices.
	keys := a.vals.take(n * k)[:0]
	aggs := a.vals.take(n)[:0]
	cnts := a.vals.take(n)[:0]

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
	// Bulk emit into exactly presized storage, then sort the rows by
	// group key — numeric comparison, not encoded bytes — with the row
	// sort. Keys are distinct, so the order is total.
	ng := len(cnts)
	out := New(name, append(append([]string(nil), groupAttrs...), outAttr)...)
	out.data = make([]Value, ng*(k+1))
	w := 0
	for g := 0; g < ng; g++ {
		w += copy(out.data[w:], keys[g*k:g*k+k])
		if fn == Count {
			out.data[w] = Value(cnts[g])
		} else {
			out.data[w] = aggs[g]
		}
		w++
	}
	byKey := make([]int, k)
	for i := range byKey {
		byKey[i] = i
	}
	sortRows(out.data, k+1, byKey, a)
	return out
}
