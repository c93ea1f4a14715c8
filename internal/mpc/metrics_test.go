package mpc

import "testing"

// TestQuantileNearestRank pins the nearest-rank quantile definition:
// Quantile(q) is the smallest per-server load with at least ⌈q·p⌉
// servers at or below it.
func TestQuantileNearestRank(t *testing.T) {
	tests := []struct {
		name string
		recv []int64
		q    float64
		want int64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []int64{7}, 0.99, 7},
		{"min", []int64{3, 1, 2}, 0, 1},
		{"max", []int64{3, 1, 2}, 1, 3},
		// 10 servers, loads 1..10: p50 = ⌈5⌉th = 5, p90 = ⌈9⌉th = 9,
		// p99 = ⌈9.9⌉th = 10th = 10. Rank truncation would give p99 = 9.
		{"p50 of 1..10", []int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.5, 5},
		{"p90 of 1..10", []int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.9, 9},
		{"p99 of 1..10", []int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.99, 10},
		// 4 servers: p99 must be the max, not the second-largest.
		{"p99 of 4", []int64{4, 2, 3, 1}, 0.99, 4},
		// Odd count median: ⌈0.5·5⌉ = 3rd smallest.
		{"median of 5", []int64{50, 10, 30, 20, 40}, 0.5, 30},
		// q between ranks rounds up: ⌈0.25·4⌉ = 1st smallest.
		{"p25 of 4", []int64{4, 3, 2, 1}, 0.25, 1},
		{"p26 of 4", []int64{4, 3, 2, 1}, 0.26, 2},
	}
	for _, tc := range tests {
		rs := RoundStat{Name: tc.name, Recv: tc.recv}
		if got := rs.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%g) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestP99Recv pins the tail statistic used by the trace layer's skew
// events: on small clusters (including p = 1) nearest-rank p99 is the
// maximum, and an idle round reports 0.
func TestP99Recv(t *testing.T) {
	tests := []struct {
		name string
		recv []int64
		want int64
	}{
		{"p=1", []int64{42}, 42},
		{"p=1 idle", []int64{0}, 0},
		{"all-zero", []int64{0, 0, 0, 0}, 0},
		{"small cluster max", []int64{5, 9, 1}, 9},
		// 100 servers: 99 at load 1, one at 50 — ⌈0.99·100⌉ = 99th
		// smallest is still 1; the heavy server is beyond p99.
		{"tail beyond p99", append(make99(1), 50), 1},
	}
	for _, tc := range tests {
		rs := RoundStat{Name: tc.name, Recv: tc.recv}
		if got := rs.P99Recv(); got != tc.want {
			t.Errorf("%s: P99Recv = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func make99(v int64) []int64 {
	xs := make([]int64, 99)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// TestGiniRecv pins the imbalance coefficient: 0 for balanced, empty,
// all-zero and single-server rounds; approaching 1 - 1/p when one
// server receives everything.
func TestGiniRecv(t *testing.T) {
	tests := []struct {
		name string
		recv []int64
		want float64
	}{
		{"empty", nil, 0},
		{"p=1", []int64{42}, 0},
		{"p=1 idle", []int64{0}, 0},
		{"all-zero", []int64{0, 0, 0}, 0},
		{"balanced", []int64{7, 7, 7, 7}, 0},
		// One of four servers receives everything: G = (p-1)/p = 0.75.
		{"one hot of 4", []int64{0, 0, 0, 100}, 0.75},
		// Loads 1,2,3,4: G = 2·(1·1+2·2+3·3+4·4)/(4·10) - 5/4 = 0.25.
		{"1..4", []int64{4, 1, 3, 2}, 0.25},
	}
	for _, tc := range tests {
		rs := RoundStat{Name: tc.name, Recv: tc.recv}
		if got := rs.GiniRecv(); got != tc.want {
			t.Errorf("%s: GiniRecv = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Monotonicity spot check: concentrating load increases Gini.
	lo := (&RoundStat{Recv: []int64{5, 5, 5, 5}}).GiniRecv()
	mid := (&RoundStat{Recv: []int64{2, 4, 6, 8}}).GiniRecv()
	hi := (&RoundStat{Recv: []int64{0, 0, 2, 18}}).GiniRecv()
	if !(lo < mid && mid < hi) {
		t.Errorf("Gini not ordered: balanced %v, mild %v, extreme %v", lo, mid, hi)
	}
}

// TestImbalance pins max/mean on the degenerate receive vectors the
// adaptive driver's trigger can see: an empty or silent round, one
// server, balanced delivery, and one-hot skew, where it reaches p.
func TestImbalance(t *testing.T) {
	hot := make([]int64, 64)
	hot[17] = 1 << 20
	for _, tc := range []struct {
		name string
		recv []int64
		want float64
	}{
		{"empty", nil, 0},
		{"all-zero", []int64{0, 0, 0, 0}, 0},
		{"single", []int64{42}, 1},
		{"all-equal", []int64{5, 5, 5, 5}, 1},
		{"one hot of 4", []int64{0, 0, 0, 400}, 4},
		{"one hot of 64", hot, 64},
	} {
		if got := (&RoundStat{Recv: tc.recv}).Imbalance(); got != tc.want {
			t.Errorf("%s: Imbalance = %v, want %v", tc.name, got, tc.want)
		}
	}
}
