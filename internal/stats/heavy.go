package stats

import (
	"cmp"
	"fmt"
	mathbits "math/bits"
	"slices"

	"mpcquery/internal/relation"
)

// Column is one stream of values: column Col of every row of Rel.
type Column struct {
	Rel *relation.Relation
	Col int
}

// Rule says how a value's degrees in several columns are held against a
// heavy-hitter threshold.
type Rule int

const (
	// InAny makes a value heavy when its degree in some single column
	// reaches the threshold: the two-way join rule, "occurs at least IN/p
	// times in R or S" (slide 29).
	InAny Rule = iota
	// Summed makes a value heavy when its degrees summed over the columns
	// reach the threshold: SkewHC's rule for one variable, whose degree
	// counts every atom column that binds it (slide 47).
	Summed
)

// Reaches reports whether a value whose degree in each column is deg
// reaches threshold t under r.
func (r Rule) Reaches(deg []int, t int) bool {
	sum, single := 0, 0
	for _, n := range deg {
		sum += n
		single = max(single, n)
	}
	if r == Summed {
		return sum >= t
	}
	return single >= t
}

// Hitter is one heavy value with its exact degree in each column, in the
// order the columns were given.
type Hitter struct {
	Value relation.Value
	Deg   []int
}

// Known is the heavy hitters a caller counted on the relations it hands
// a skew algorithm, which routes by them instead of counting its own: a
// two-way join's (skewjoin, join2.HeavyHitters' output) or those of each
// variable of q.Vars() (skewhc, hypercube.HeavyValues'). A nil *Known
// hands nothing, and the algorithm counts for itself.
type Known struct {
	Join []Hitter
	Vars [][]relation.Value
}

// Heavy returns the values whose degree reaches threshold under rule,
// sorted by value, each with its exact degree in every column. A
// threshold below 1 counts as 1.
//
// Pass 1 counts the values per hash bucket, in one array per column
// under InAny and one shared array under Summed (bucketBits sizes them).
// A value that occurs t times fills its bucket to t, so when no bucket
// reaches t Heavy returns nil after that one scan. Otherwise pass 2
// counts the exact per-column degrees of the values in hot buckets only.
// Memory is O(n/t) buckets plus the values in hot buckets, at most n on
// adversarial input.
func Heavy(cols []Column, threshold int, rule Rule) []Hitter {
	t := max(threshold, 1)
	n, longest := 0, 0
	for _, c := range cols {
		if c.Col < 0 || c.Col >= c.Rel.Arity() {
			panic(fmt.Sprintf("stats: column %d of %s, which has arity %d", c.Col, c.Rel.Name(), c.Rel.Arity()))
		}
		n += c.Rel.Len()
		longest = max(longest, c.Rel.Len())
	}
	if n == 0 {
		return nil
	}
	arrays, stream := len(cols), longest
	if rule == Summed {
		arrays, stream = 1, n
	}
	bits := bucketBits(stream, t)
	b := 1 << bits
	counts := make([]int, arrays*b)
	for ci, c := range cols {
		bucket := counts[:b]
		if rule == InAny {
			bucket = counts[ci*b : (ci+1)*b]
		}
		flat, step := c.Rel.Flat(), c.Rel.Arity()
		for j := c.Col; j < len(flat); j += step {
			bucket[hash(flat[j])>>(64-bits)]++
		}
	}
	// Fold the arrays into counts[:b], 1 for a hot bucket and 0 for any
	// other, summing the hot buckets' occurrences.
	hot, occ := 0, 0
	for i := 0; i < b; i++ {
		sum, reach := 0, false
		for a := i; a < len(counts); a += b {
			sum += counts[a]
			reach = reach || counts[a] >= t
		}
		counts[i] = 0
		if reach {
			counts[i], hot, occ = 1, hot+1, occ+sum
		}
	}
	if hot == 0 {
		return nil
	}
	// A hot bucket holds about n/b values besides its heavy ones.
	est, k := min(occ, hot*(n/b+2)), len(cols)
	ex := &exact{k: k, skip: int(bits), keys: make([]relation.Value, 0, est), deg: make([]int, 0, est*k)}
	ex.grow(est)
	for ci, c := range cols {
		flat, step := c.Rel.Flat(), c.Rel.Arity()
		for j := c.Col; j < len(flat); j += step {
			if h := hash(flat[j]); counts[h>>(64-bits)] != 0 {
				ex.add(flat[j], h, ci)
			}
		}
	}
	var out []Hitter
	for i, v := range ex.keys {
		if d := ex.deg[i*k : (i+1)*k : (i+1)*k]; rule.Reaches(d, t) {
			out = append(out, Hitter{Value: v, Deg: d})
		}
	}
	slices.SortFunc(out, func(x, y Hitter) int { return cmp.Compare(x.Value, y.Value) })
	return out
}

// bucketBits is log₂ of the bucket count for m values at threshold t:
// the power of two at or above min(64·⌊m/t⌋, m). A bucket then holds
// about t/64 values, so light values alone rarely fill one to t.
func bucketBits(m, t int) uint {
	return uint(mathbits.Len(uint(max(min(64*(m/t), m), 1) - 1)))
}

// hash is Fibonacci hashing: its top bits pick a value's bucket.
func hash(v relation.Value) uint64 { return uint64(v) * 0x9e3779b97f4a7c15 }

// exact counts per-column degrees of distinct values in dense arrays,
// keys[i]'s in deg[i*k : (i+1)*k], found through an open-addressed index
// at most half full. Its values share their bucket's top hash bits, so
// the index reads the skip bits below those.
type exact struct {
	k, skip int
	keys    []relation.Value
	deg     []int
	index   []int32 // 1 + a position in keys; 0 marks a free slot
	shift   uint
}

// grow rebuilds the index with room for n values at half load.
func (e *exact) grow(n int) {
	bits := mathbits.Len(uint(2*n - 1))
	e.index, e.shift = make([]int32, 1<<bits), uint(64-bits)
	for i, v := range e.keys {
		e.index[e.find(v, hash(v))] = int32(i + 1)
	}
}

// find returns the slot that holds v, whose hash is h, or v's free slot.
func (e *exact) find(v relation.Value, h uint64) int {
	mask := len(e.index) - 1
	i := int(mathbits.RotateLeft64(h, e.skip) >> e.shift)
	for e.index[i] != 0 && e.keys[e.index[i]-1] != v {
		i = (i + 1) & mask
	}
	return i
}

// add counts one occurrence of v, whose hash is h, in column ci.
func (e *exact) add(v relation.Value, h uint64, ci int) {
	s := e.find(v, h)
	if e.index[s] == 0 {
		if 2*(len(e.keys)+1) > len(e.index) {
			e.grow(2 * len(e.keys))
			s = e.find(v, h)
		}
		e.keys = append(e.keys, v)
		e.deg = slices.Grow(e.deg, e.k)[:len(e.deg)+e.k] // zeroed past len
		e.index[s] = int32(len(e.keys))
	}
	e.deg[int(e.index[s]-1)*e.k+ci]++
}
