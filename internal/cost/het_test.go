package cost

import "testing"

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
