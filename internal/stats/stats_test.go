package stats

import "testing"

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
