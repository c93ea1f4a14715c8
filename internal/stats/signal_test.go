package stats

import (
	"math"
	"strings"
	"testing"

	"mpcquery/internal/relation"
)

// TestFromRecvEdgeCases pins the feedback signal on the degenerate
// receive vectors the adaptive executor can actually see: an empty
// round, a silent round, one server, perfectly balanced delivery, and
// extreme one-hot skew.
func TestFromRecvEdgeCases(t *testing.T) {
	tests := []struct {
		name string
		recv []int64
		want RecvSignal
	}{
		{"empty", nil, RecvSignal{}},
		{"all-zero", []int64{0, 0, 0, 0}, RecvSignal{}},
		{"single", []int64{42}, RecvSignal{MaxRecv: 42, Mean: 42, Imbalance: 1, Gini: 0}},
		{"all-equal", []int64{5, 5, 5, 5}, RecvSignal{MaxRecv: 5, Mean: 5, Imbalance: 1, Gini: 0}},
		{"one-hot", []int64{0, 0, 0, 400}, RecvSignal{MaxRecv: 400, Mean: 100, Imbalance: 4, Gini: 0.75}},
	}
	for _, tc := range tests {
		got := FromRecv(tc.recv)
		if got != tc.want {
			t.Errorf("%s: FromRecv(%v) = %+v, want %+v", tc.name, tc.recv, got, tc.want)
		}
	}
}

// TestFromRecvExtremeSkew checks the asymptotics on a large one-hot
// vector: imbalance approaches p and Gini approaches 1-1/p.
func TestFromRecvExtremeSkew(t *testing.T) {
	const p = 64
	recv := make([]int64, p)
	recv[17] = 1 << 20
	s := FromRecv(recv)
	if s.MaxRecv != 1<<20 {
		t.Fatalf("MaxRecv = %d", s.MaxRecv)
	}
	if math.Abs(s.Imbalance-p) > 1e-9 {
		t.Errorf("Imbalance = %v, want %v", s.Imbalance, float64(p))
	}
	if math.Abs(s.Gini-(1-1.0/p)) > 1e-9 {
		t.Errorf("Gini = %v, want %v", s.Gini, 1-1.0/p)
	}
}

// TestSkewedThresholds exercises both triggers.
func TestSkewedThresholds(t *testing.T) {
	balanced := FromRecv([]int64{10, 10, 10, 10})
	skewed := FromRecv([]int64{1, 1, 1, 97})
	if balanced.Skewed(2.0, 0.4) {
		t.Errorf("balanced signal %+v flagged skewed", balanced)
	}
	if !skewed.Skewed(2.0, 0.4) {
		t.Errorf("skewed signal %+v not flagged", skewed)
	}
	// Each trigger alone suffices: no Gini exceeds 1, and no imbalance
	// exceeds p.
	if !skewed.Skewed(2.0, 1) {
		t.Errorf("imbalance trigger alone should fire on %+v", skewed)
	}
	if !skewed.Skewed(4, 0.4) {
		t.Errorf("gini trigger alone should fire on %+v", skewed)
	}
	// Thresholds are strict: a signal exactly at the threshold does
	// not fire, so imbalance 1.0 survives maxImbalance 1.0.
	if balanced.Skewed(1.0, 0) {
		t.Errorf("imbalance exactly at threshold must not fire")
	}
	if got := skewed.String(); !strings.Contains(got, "max=97") {
		t.Errorf("String() = %q, want it to carry max recv", got)
	}
}

// TestSampledThreshold pins the probe-side scaling of a full-input
// heavy-hitter threshold.
func TestSampledThreshold(t *testing.T) {
	tests := []struct {
		threshold int
		frac      float64
		want      int
	}{
		{0, 0.15, 1},    // degenerate full threshold floors at 1
		{-3, 0.5, 1},    // negative likewise
		{100, 0.25, 40}, // m = 25 plus 3√25 = 15
		{100, 0.15, 27}, // m = 15 plus 3√15 = 11.6, ceil, not round
		{15, 0.15, 7},   // m = 2.25 plus 4.5: a summed degree of 3 is not heavy
		{3, 0.15, 3},    // small threshold: the margin dominates
		{100, 0, 100},   // non-positive frac: no scaling
		{100, 1, 100},   // frac >= 1: no scaling
		{100, 2, 100},
	}
	for _, tc := range tests {
		if got := SampledThreshold(tc.threshold, tc.frac); got != tc.want {
			t.Errorf("SampledThreshold(%d, %g) = %d, want %d", tc.threshold, tc.frac, got, tc.want)
		}
	}
}

// TestHeavyThresholdBoundary pins the inclusive >= threshold semantics
// the adaptive probe relies on: a value whose sampled degree lands
// exactly on SampledThreshold must be detected.
func TestHeavyThresholdBoundary(t *testing.T) {
	col := []Column{column("R", 1, 0, []relation.Value{1, 1, 2, 2, 2, 3, 3, 3, 3}, 0)}
	if got := Heavy(col, 3, InAny); len(got) != 2 || got[0].Value != 2 || got[1].Value != 3 {
		t.Fatalf("Heavy(3) = %v, want 2 and 3 (inclusive threshold)", got)
	}
	if got := Heavy(col, 5, InAny); len(got) != 0 {
		t.Fatalf("Heavy(5) = %v, want none", got)
	}
	// Threshold 1 declares everything heavy — the degenerate-probe
	// floor of SampledThreshold must therefore stay conservative, not
	// silent.
	if got := Heavy(col, SampledThreshold(0, 0.15), InAny); len(got) != 3 {
		t.Fatalf("Heavy(1) = %v, want all 3 values", got)
	}
}

// TestGiniExtremeSkew extends the Gini pin to a large planted-heavy
// degree vector: one value holding half the mass among many singletons
// must push Gini well above the 0.4 adaptive trigger.
func TestGiniExtremeSkew(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	xs[0] = 999 // one value with half the total mass
	if g := Gini(xs); g < 0.45 || g >= 1 {
		t.Errorf("Gini(planted heavy) = %v, want in [0.45, 1)", g)
	}
}

// TestQuantileInt64ExtremeSkew pins nearest-rank quantiles on a
// one-hot vector: every quantile below the top rank sees the zeros.
func TestQuantileInt64ExtremeSkew(t *testing.T) {
	xs := make([]int64, 100)
	xs[99] = 12345
	if got := QuantileInt64(xs, 0.98); got != 0 {
		t.Errorf("q0.98 of one-hot = %d, want 0", got)
	}
	if got := QuantileInt64(xs, 1); got != 12345 {
		t.Errorf("q1 of one-hot = %d, want 12345", got)
	}
}

// TestHeavyFeedbackPath mirrors how the adaptive probe derives heavy
// hitters: Heavy over a prefix at the sampled threshold.
func TestHeavyFeedbackPath(t *testing.T) {
	r := relation.New("R", "a", "b")
	// 40 rows, value 7 appears every 4th row (degree 10), others once.
	for i := 0; i < 40; i++ {
		v := relation.Value(100 + i)
		if i%4 == 0 {
			v = 7
		}
		r.Append(v, relation.Value(i))
	}
	// Full threshold 8 (say IN/p); the probe saw the full relation
	// here, so the unscaled threshold finds exactly the planted value.
	if got := Heavy([]Column{{Rel: r, Col: 0}}, 8, Summed); len(got) != 1 || got[0].Value != 7 {
		t.Fatalf("Heavy(8) = %v, want 7 alone", got)
	}
}
