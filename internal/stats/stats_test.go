package stats

import (
	"testing"

	"mpcquery/internal/relation"
)

// TestQuantileInt64 pins the shared nearest-rank quantile on raw
// slices — the primitive both RoundStat.Quantile and the trace skew
// events delegate to, so the two layers agree exactly.
func TestQuantileInt64(t *testing.T) {
	tests := []struct {
		name string
		xs   []int64
		q    float64
		want int64
	}{
		{"empty", nil, 0.99, 0},
		{"single", []int64{9}, 0.99, 9},
		{"min", []int64{4, 2, 8}, 0, 2},
		{"max", []int64{4, 2, 8}, 1, 8},
		{"median of 4", []int64{40, 10, 30, 20}, 0.5, 20},
		{"p99 small n is max", []int64{3, 1, 2}, 0.99, 3},
		{"input not mutated check", []int64{5, 1}, 0.5, 1},
	}
	for _, tc := range tests {
		xs := append([]int64(nil), tc.xs...)
		if got := QuantileInt64(xs, tc.q); got != tc.want {
			t.Errorf("%s: QuantileInt64(%v, %g) = %d, want %d", tc.name, tc.xs, tc.q, got, tc.want)
		}
		for i := range xs {
			if xs[i] != tc.xs[i] {
				t.Errorf("%s: QuantileInt64 mutated its input: %v", tc.name, xs)
				break
			}
		}
	}
}

// TestGini pins the Gini coefficient on raw slices.
func TestGini(t *testing.T) {
	tests := []struct {
		name string
		xs   []int64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []int64{7}, 0},
		{"all-zero", []int64{0, 0, 0}, 0},
		{"uniform", []int64{3, 3, 3}, 0},
		{"one-hot of 4", []int64{0, 100, 0, 0}, 0.75},
		{"1..4", []int64{2, 4, 1, 3}, 0.25},
	}
	for _, tc := range tests {
		xs := append([]int64(nil), tc.xs...)
		if got := Gini(xs); got != tc.want {
			t.Errorf("%s: Gini(%v) = %v, want %v", tc.name, tc.xs, got, tc.want)
		}
		for i := range xs {
			if xs[i] != tc.xs[i] {
				t.Errorf("%s: Gini mutated its input: %v", tc.name, xs)
				break
			}
		}
	}
}

// TestHeavyThresholdBoundary pins the inclusive >= threshold semantics
// of the heavy-hitter rules: a value whose degree lands exactly on the
// threshold is heavy.
func TestHeavyThresholdBoundary(t *testing.T) {
	col := []Column{column("R", 1, 0, []relation.Value{1, 1, 2, 2, 2, 3, 3, 3, 3}, 0)}
	if got := Heavy(col, 3, InAny); len(got) != 2 || got[0].Value != 2 || got[1].Value != 3 {
		t.Fatalf("Heavy(3) = %v, want 2 and 3 (inclusive threshold)", got)
	}
	if got := Heavy(col, 5, InAny); len(got) != 0 {
		t.Fatalf("Heavy(5) = %v, want none", got)
	}
	// Threshold 1 declares everything heavy.
	if got := Heavy(col, 1, InAny); len(got) != 3 {
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
