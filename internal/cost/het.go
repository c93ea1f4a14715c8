package cost

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

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
