package stats

import (
	"fmt"
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

// Heavy returns the values whose degree reaches threshold under rule,
// sorted by value, each with its exact degree in every column. A
// threshold below 1 counts as 1.
//
// A stream of n values holds at most n/t values that occur t times, so
// Misra–Gries' summary with ⌊n/t⌋ counters (Misra & Gries 1982) keeps
// every one of them, and one exact recount of the survivors drops the
// rest: O(n) time and O(n/t) memory, with no per-value map. Under InAny
// each column is summarised alone and the survivors are pooled; under
// Summed the columns are one stream. The summary's own error bound
// prunes survivors before the recount, and when none is left there is
// no recount: on a column with no heavy value there usually is none.
func Heavy(cols []Column, threshold int, rule Rule) []Hitter {
	t := max(threshold, 1)
	n := 0
	for _, c := range cols {
		if c.Col < 0 || c.Col >= c.Rel.Arity() {
			panic(fmt.Sprintf("stats: column %d of %s, which has arity %d", c.Col, c.Rel.Name(), c.Rel.Arity()))
		}
		n += c.Rel.Len()
	}
	var cands []relation.Value
	if rule == Summed {
		cands = survivors(cols, n/t, t, cands)
	} else {
		for i, c := range cols {
			cands = survivors(cols[i:i+1], c.Rel.Len()/t, t, cands)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	slices.Sort(cands)
	return recount(cols, slices.Compact(cands), t, rule)
}

// survivors runs Misra–Gries' k-counter summary over the columns as one
// stream and appends to out the values that may occur t times in it.
// A decrement step takes one occurrence from each of the k counters and
// drops the value that found them taken, so a stream of n values that
// leaves counters c saw d = (n − Σc)/(k+1) steps. A value's occurrences
// each either raised its counter or went in a step, at most one per
// step, so a value that holds counter c occurs at most c + d times, and
// one that holds none at most d times: the values with c + d ≥ t are a
// superset of those that occur t times, when t > n/(k+1).
func survivors(cols []Column, k, t int, out []relation.Value) []relation.Value {
	if k < 1 {
		return out
	}
	sum := newSummary(k)
	d := 0
	for _, c := range cols {
		flat, step := c.Rel.Flat(), c.Rel.Arity()
		d += c.Rel.Len()
		for j := c.Col; j < len(flat); j += step {
			v := flat[j]
			s := sum.find(v)
			switch i := sum.index[s]; {
			case i > 0:
				sum.counts[i-1]++
			case len(sum.keys) < k:
				sum.keys = append(sum.keys, v)
				sum.counts = append(sum.counts, 1)
				sum.index[s] = int32(len(sum.keys))
			default:
				sum.decrement()
			}
		}
	}
	for _, c := range sum.counts {
		d -= c
	}
	d /= k + 1
	for i, v := range sum.keys {
		if sum.counts[i]+d >= t {
			out = append(out, v)
		}
	}
	return out
}

// recount counts the candidates' exact degrees in every column and keeps
// those that reach t under rule. cands is sorted and distinct.
func recount(cols []Column, cands []relation.Value, t int, rule Rule) []Hitter {
	idx := newSummary(len(cands))
	for _, v := range cands {
		idx.keys = append(idx.keys, v)
		idx.index[idx.find(v)] = int32(len(idx.keys))
	}
	// Row 1+i of deg counts cands[i]; row 0 counts every other value, so
	// the loop needs no branch on whether a value is a candidate.
	k := len(cols)
	deg := make([]int, (1+len(cands))*k)
	for ci, c := range cols {
		flat, step := c.Rel.Flat(), c.Rel.Arity()
		for j := c.Col; j < len(flat); j += step {
			deg[int(idx.index[idx.find(flat[j])])*k+ci]++
		}
	}
	var out []Hitter
	for i, v := range cands {
		if d := deg[(1+i)*k : (2+i)*k : (2+i)*k]; rule.Reaches(d, t) {
			out = append(out, Hitter{Value: v, Deg: d})
		}
	}
	return out
}

// summary holds at most a fixed number of values with a count each, in
// dense arrays, and finds them through an open-addressed index of at
// least eight slots per value, so that a probe almost always ends at its
// first slot.
type summary struct {
	keys   []relation.Value
	counts []int
	index  []int32 // 1 + a position in keys; 0 marks a free slot
	shift  uint
}

func newSummary(n int) *summary {
	bits := uint(1)
	for 1<<bits < 8*n {
		bits++
	}
	return &summary{
		keys:   make([]relation.Value, 0, n),
		counts: make([]int, 0, n),
		index:  make([]int32, 1<<bits),
		shift:  64 - bits,
	}
}

// find returns the index slot that holds v, or the free slot where v
// would go.
func (s *summary) find(v relation.Value) int {
	mask := len(s.index) - 1
	i := int(uint64(v) * 0x9e3779b97f4a7c15 >> s.shift) // Fibonacci hashing
	for s.index[i] != 0 && s.keys[s.index[i]-1] != v {
		i = (i + 1) & mask
	}
	return i
}

// decrement is Misra–Gries' step for a value that finds every counter
// taken: each count drops by one, the values left at zero are dropped,
// and the index is rebuilt over the rest.
func (s *summary) decrement() {
	n := 0
	for i, c := range s.counts {
		if c > 1 {
			s.keys[n], s.counts[n] = s.keys[i], c-1
			n++
		}
	}
	s.keys, s.counts = s.keys[:n], s.counts[:n]
	clear(s.index)
	for i, v := range s.keys {
		s.index[s.find(v)] = int32(i + 1)
	}
}
