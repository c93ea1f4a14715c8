package stats

import (
	"math"
	"sort"
)

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
