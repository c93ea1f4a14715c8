package relation

import "math/bits"

// sortSmallRows is the row count up to which sortRows insertion-sorts:
// below it the 256-bucket counting passes cost more than the quadratic
// compares (measured crossover on arity-2 rows is between 32 and 48).
const sortSmallRows = 32

// sortRows sorts the rows of data (row-major, arity k) in place,
// lexicographically by the columns listed in order, most significant
// first. Rows that agree on every listed column keep their input
// order, so callers wanting a total order list every column.
//
// It is an LSD radix sort over the bytes of each key column: one
// stable counting pass per byte, ping-ponging whole rows between data
// and an arena buffer. Only the bytes a column's spread (max − min)
// occupies are sorted on, so a column of values below 2¹⁶ costs two
// passes, not eight, and a constant column none. This is the one row
// sort of the package: SortBy (hence Sort, Dedup) and GroupBy's output
// run on it.
func sortRows(data []Value, k int, order []int, a *kernelArena) {
	n := len(data) / k
	if n <= sortSmallRows {
		insertionSortRows(data, k, order)
		return
	}
	tmp := a.vals.take(len(data))
	// Deferred, not called at the end: tmp kept live across the passes
	// costs their loops a register, and SortBy 10 % of its time.
	defer a.vals.give(tmp)
	src, dst := data, tmp
	var hist [8][256]int32
	for oi := len(order) - 1; oi >= 0; oi-- {
		c := order[oi]
		lo, hi := src[c], src[c]
		for i := c + k; i < len(src); i += k {
			lo, hi = min(lo, src[i]), max(hi, src[i])
		}
		// Keys are offsets from the column minimum: unsigned, order
		// preserving, and as many bytes wide as the column's spread.
		span := uint64(hi) - uint64(lo)
		passes := (bits.Len64(span) + 7) / 8
		for p := 0; p < passes; p++ {
			hist[p] = [256]int32{}
		}
		for i := c; i < len(src); i += k {
			key := uint64(src[i]) - uint64(lo)
			for p := 0; p < passes; p++ {
				hist[p][key>>(8*p)&0xff]++
			}
		}
		for p := 0; p < passes; p++ {
			h := &hist[p]
			off := int32(0)
			for d := range h {
				h[d], off = off, off+h[d]
			}
			for i := 0; i < len(src); i += k {
				d := (uint64(src[i+c]) - uint64(lo)) >> (8 * p) & 0xff
				o := int(h[d]) * k
				for j := 0; j < k; j++ {
					dst[o+j] = src[i+j]
				}
				h[d]++
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

// insertionSortRows is sortRows for a handful of rows: stable, in
// place, no scratch.
func insertionSortRows(data []Value, k int, order []int) {
	var rowBuf [8]Value
	row := rowBuf[:]
	if k > len(row) {
		row = make([]Value, k)
	}
	row = row[:k]
	for i := k; i < len(data); i += k {
		j := i
		for j > 0 && rowLess(data[i:i+k], data[j-k:j], order) {
			j -= k
		}
		if j == i {
			continue
		}
		copy(row, data[i:i+k])
		copy(data[j+k:i+k], data[j:i])
		copy(data[j:], row)
	}
}

// rowLess reports whether row a orders strictly before row b on the
// columns in order.
func rowLess(a, b []Value, order []int) bool {
	for _, c := range order {
		if a[c] != b[c] {
			return a[c] < b[c]
		}
	}
	return false
}
