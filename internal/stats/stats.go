package stats

import (
	"math"
	"sort"

	"mpcquery/internal/relation"
)

// Degrees maps each distinct value of one attribute to its frequency.
// It is for where the whole distribution is needed (distinct counts,
// percentiles); Heavy finds heavy hitters without building one.
type Degrees map[relation.Value]int

// DegreesOf counts the occurrences of each value of attr in rel.
func DegreesOf(rel *relation.Relation, attr string) Degrees {
	return DegreesOfCol(rel, rel.MustCol(attr))
}

// DegreesOfCol is DegreesOf by column index — the form the planners
// use, whose relations are positional to an atom's variables and need
// no renamed copy just to be counted.
func DegreesOfCol(rel *relation.Relation, c int) Degrees {
	d := make(Degrees)
	n := rel.Len()
	for i := 0; i < n; i++ {
		d[rel.Row(i)[c]]++
	}
	return d
}

// Max returns the maximum degree (0 for empty).
func (d Degrees) Max() int {
	m := 0
	for _, n := range d {
		if n > m {
			m = n
		}
	}
	return m
}

// HeavyHitters returns the values with degree ≥ threshold, sorted
// ascending for determinism.
func (d Degrees) HeavyHitters(threshold int) []relation.Value {
	var out []relation.Value
	for v, n := range d {
		if n >= threshold {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// HeavySet returns HeavyHitters as a membership set.
func (d Degrees) HeavySet(threshold int) map[relation.Value]bool {
	set := map[relation.Value]bool{}
	for v, n := range d {
		if n >= threshold {
			set[v] = true
		}
	}
	return set
}

// Summary describes the degree distribution of one attribute.
type Summary struct {
	Distinct  int
	Total     int
	MaxDegree int
	// P99Degree is the degree at the 99th percentile of values.
	P99Degree int
}

// Summarize computes a Summary from degrees.
func Summarize(d Degrees) Summary {
	s := Summary{Distinct: len(d)}
	degs := make([]int, 0, len(d))
	for _, n := range d {
		s.Total += n
		if n > s.MaxDegree {
			s.MaxDegree = n
		}
		degs = append(degs, n)
	}
	if len(degs) > 0 {
		sort.Ints(degs)
		s.P99Degree = degs[len(degs)*99/100]
	}
	return s
}

// QuantileInt64 returns the q-quantile (0 ≤ q ≤ 1) of xs using the
// nearest-rank definition: the smallest value with at least ⌈q·n⌉
// elements at or below it. QuantileInt64(xs, 0) is the minimum and
// QuantileInt64(xs, 1) the maximum; an empty slice yields 0. This is
// the single shared definition used by both the metric window
// (mpc.RoundStat) and the trace layer, so their skew summaries agree
// exactly.
func QuantileInt64(xs []int64, q float64) int64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// Gini returns the Gini coefficient of xs — 0 for perfect balance
// (all equal, including all-zero and single-element slices), tending
// to 1 as one element holds everything. It is the scale-free skew
// summary recorded per round by the trace layer: unlike max/mean it
// reflects the whole received-load distribution, not just its top.
func Gini(xs []int64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var total, weighted float64
	for i, v := range sorted {
		total += float64(v)
		weighted += float64(i+1) * float64(v)
	}
	if total == 0 {
		return 0
	}
	nf := float64(n)
	return (2*weighted)/(nf*total) - (nf+1)/nf
}
