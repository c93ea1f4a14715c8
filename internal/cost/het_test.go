package cost

import (
	"math"
	"testing"
)

func TestEffectiveParallelism(t *testing.T) {
	tests := []struct {
		name string
		caps []float64
		want float64
	}{
		{"empty", nil, 0},
		{"uniform 4", []float64{1, 1, 1, 1}, 4},
		{"uniform scaled", []float64{3, 3, 3, 3}, 4},
		{"one fast", []float64{2, 1, 1, 1}, 2.5},
		{"one machine", []float64{7}, 1},
		{"non-positive entry", []float64{1, 0, 1}, 0},
	}
	for _, tc := range tests {
		if got := EffectiveParallelism(tc.caps); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: EffectiveParallelism(%v) = %v, want %v", tc.name, tc.caps, got, tc.want)
		}
	}
}

func TestApportionCells(t *testing.T) {
	tests := []struct {
		name string
		g    int
		caps []float64
		want []int
	}{
		{"uniform divides evenly", 8, []float64{1, 1, 1, 1}, []int{2, 2, 2, 2}},
		{"uniform remainder to low ids", 10, []float64{1, 1, 1, 1}, []int{3, 3, 2, 2}},
		{"2:1:1 split", 16, []float64{2, 1, 1}, []int{8, 4, 4}},
		{"proportional with remainders", 10, []float64{5, 3, 2}, []int{5, 3, 2}},
		{"tiny grid big cluster", 2, []float64{1, 1, 1, 1}, []int{1, 1, 0, 0}},
		{"zero cells", 0, []float64{1, 2}, []int{0, 0}},
		{"degenerate profile uniform fallback", 5, []float64{0, 0}, []int{3, 2}},
	}
	for _, tc := range tests {
		got := ApportionCells(tc.g, tc.caps)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: len = %d, want %d", tc.name, len(got), len(tc.want))
		}
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != tc.want[i] {
				t.Errorf("%s: ApportionCells(%d, %v) = %v, want %v", tc.name, tc.g, tc.caps, got, tc.want)
				break
			}
		}
		if tc.g > 0 && sum != tc.g {
			t.Errorf("%s: counts %v sum to %d, want %d", tc.name, got, sum, tc.g)
		}
	}
}

// TestApportionCellsConservation fuzzes the invariant that counts
// always sum to g and no server with positive capacity loses its
// floor share.
func TestApportionCellsConservation(t *testing.T) {
	profiles := [][]float64{
		{1, 2, 3, 4}, {0.1, 0.1, 10}, {1, 1, 1, 1, 1, 1, 1, 1},
		{7, 0.5, 0.5}, {1.5, 2.5},
	}
	for _, caps := range profiles {
		var sumCap float64
		for _, c := range caps {
			sumCap += c
		}
		for g := 1; g <= 64; g++ {
			got := ApportionCells(g, caps)
			sum := 0
			for i, n := range got {
				sum += n
				floor := int(math.Floor(float64(g) * caps[i] / sumCap))
				if n < floor {
					t.Fatalf("ApportionCells(%d, %v)[%d] = %d below floor %d", g, caps, i, n, floor)
				}
			}
			if sum != g {
				t.Fatalf("ApportionCells(%d, %v) = %v sums to %d", g, caps, got, sum)
			}
		}
	}
}

func TestParseCapacities(t *testing.T) {
	good := []struct {
		in   string
		want []float64
	}{
		{"", nil},
		{"  ", nil},
		{"1,2,3", []float64{1, 2, 3}},
		{" 1.5 , 0.5 ", []float64{1.5, 0.5}},
	}
	for _, tc := range good {
		got, err := ParseCapacities(tc.in)
		if err != nil {
			t.Errorf("ParseCapacities(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseCapacities(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseCapacities(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
	for _, bad := range []string{"1,x", "1,,2", "0,1", "-1", "1,inf", "nan"} {
		if _, err := ParseCapacities(bad); err == nil {
			t.Errorf("ParseCapacities(%q): want error", bad)
		}
	}
}
