package cost

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// EffectiveParallelism maps a per-machine capacity vector to the
// number of capacity-max-normalized uniform servers the cluster is
// worth: Σ c_i / max c_i. A uniform cluster of p machines yields p; a
// cluster where one machine is twice as fast as the other three
// yields 1 + 3·(1/2) = 2.5. Heterogeneity-aware planning uses it as
// the p that load formulas should see: the fastest machine sets the
// pace, and slower machines contribute fractions of it (arXiv
// 2501.08896's normalized-speed model). Returns 0 for an empty or
// non-positive profile.
func EffectiveParallelism(caps []float64) float64 {
	var max, sum float64
	for _, c := range caps {
		if c <= 0 {
			return 0
		}
		if c > max {
			max = c
		}
		sum += c
	}
	if max == 0 {
		return 0
	}
	return sum / max
}

// ApportionCells splits g grid cells across len(caps) servers
// proportionally to capacity using largest-remainder apportionment:
// server i gets round(g·c_i/Σc) cells, with remainders resolved
// largest-first (ties to the lower server id, so the split is
// deterministic). Every server with positive capacity gets at least
// its floor; the counts always sum to exactly g. With uniform
// capacities this degrades to the balanced g/p ± 1 split.
func ApportionCells(g int, caps []float64) []int {
	p := len(caps)
	counts := make([]int, p)
	if g <= 0 || p == 0 {
		return counts
	}
	var sum float64
	for _, c := range caps {
		sum += c
	}
	if sum <= 0 {
		// Degenerate profile: fall back to the uniform split.
		for i := range counts {
			counts[i] = g / p
			if i < g%p {
				counts[i]++
			}
		}
		return counts
	}
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, p)
	assigned := 0
	for i, c := range caps {
		exact := float64(g) * c / sum
		counts[i] = int(math.Floor(exact))
		assigned += counts[i]
		rems[i] = rem{i, exact - math.Floor(exact)}
	}
	sort.SliceStable(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].i < rems[b].i
	})
	for k := 0; assigned < g; k++ {
		counts[rems[k%p].i]++
		assigned++
	}
	return counts
}

// ParseCapacities parses a comma-separated capacity vector such as
// "1,1,2,4" (whitespace around entries is ignored). Every entry must
// be a positive float. Both mpcrun -capacities and mpcserve
// -capacities go through this parser, so the two frontends accept the
// same syntax.
func ParseCapacities(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	caps := make([]float64, 0, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("capacity %d: %q is not a number", i, strings.TrimSpace(part))
		}
		if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("capacity %d: %v must be a positive finite number", i, v)
		}
		caps = append(caps, v)
	}
	return caps, nil
}
