package stats

import (
	"testing"

	"mpcquery/internal/relation"
)

func rel(rows ...[]relation.Value) *relation.Relation {
	return relation.FromRows("R", []string{"y", "p"}, rows)
}

func TestDegreesOf(t *testing.T) {
	r := rel([]relation.Value{1, 0}, []relation.Value{1, 1}, []relation.Value{2, 2})
	d := DegreesOf(r, "y")
	if d[1] != 2 || d[2] != 1 || len(d) != 2 {
		t.Fatalf("degrees = %v", d)
	}
	if d.Max() != 2 {
		t.Fatalf("max = %d", d.Max())
	}
}

func TestDegreesEmpty(t *testing.T) {
	d := DegreesOf(relation.New("R", "y"), "y")
	if len(d) != 0 || d.Max() != 0 {
		t.Fatalf("empty degrees wrong: %v", d)
	}
}

func TestHeavyHitters(t *testing.T) {
	d := Degrees{10: 5, 20: 3, 30: 5, 40: 1}
	hh := d.HeavyHitters(4)
	if len(hh) != 2 || hh[0] != 10 || hh[1] != 30 {
		t.Fatalf("heavy = %v", hh)
	}
	set := d.HeavySet(4)
	if !set[10] || !set[30] || set[20] {
		t.Fatalf("heavy set = %v", set)
	}
	if got := d.HeavyHitters(100); len(got) != 0 {
		t.Fatalf("threshold 100 should find none: %v", got)
	}
}

func TestSummarize(t *testing.T) {
	d := Degrees{}
	for v := relation.Value(0); v < 100; v++ {
		d[v] = 1
	}
	d[999] = 50
	s := Summarize(d)
	if s.Distinct != 101 || s.Total != 150 || s.MaxDegree != 50 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P99Degree != 1 {
		t.Fatalf("p99 = %d, want 1 (heavy value is beyond p99)", s.P99Degree)
	}
	empty := Summarize(Degrees{})
	if empty.Distinct != 0 || empty.MaxDegree != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

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
