package stats

import (
	"fmt"
	"math"
)

// RecvSignal summarizes one metered round's per-server receive vector
// into the skew measures the adaptive executor thresholds. It is a
// pure function of the receive counts, so two runs that deliver the
// same tuples produce bit-identical signals — a prerequisite for the
// adaptive switch staying deterministic.
type RecvSignal struct {
	// MaxRecv is the largest per-server receive count (the round's L).
	MaxRecv int64
	// Mean is the average receive count across servers.
	Mean float64
	// Imbalance is MaxRecv/Mean — 1.0 for a perfectly balanced round,
	// approaching p when one server receives everything. 0 when the
	// round delivered nothing.
	Imbalance float64
	// Gini is the Gini coefficient of the receive vector — 0 for
	// perfectly equal loads, approaching 1−1/p when one server
	// receives everything.
	Gini float64
}

// FromRecv computes the signal for one round's per-server receive
// counts (e.g. mpc.RoundStat.Recv).
func FromRecv(recv []int64) RecvSignal {
	var s RecvSignal
	if len(recv) == 0 {
		return s
	}
	var total int64
	for _, r := range recv {
		if r > s.MaxRecv {
			s.MaxRecv = r
		}
		total += r
	}
	if total == 0 {
		return s
	}
	s.Mean = float64(total) / float64(len(recv))
	s.Imbalance = float64(s.MaxRecv) / s.Mean
	s.Gini = Gini(recv)
	return s
}

// Skewed reports whether the signal crosses either re-plan trigger:
// an imbalance ratio above maxImbalance or a Gini coefficient above
// maxGini.
func (s RecvSignal) Skewed(maxImbalance, maxGini float64) bool {
	return s.Imbalance > maxImbalance || s.Gini > maxGini
}

// String renders the signal for traces and EXPLAIN-style reports.
func (s RecvSignal) String() string {
	return fmt.Sprintf("max=%d mean=%.1f imbalance=%.2f gini=%.3f",
		s.MaxRecv, s.Mean, s.Imbalance, s.Gini)
}

// SampledThreshold scales a full-input heavy-hitter threshold down to
// a probe that observed only a frac fraction of the input. A value with
// full-input degree d shows about Poisson(frac·d) occurrences in the
// probe, so a value at the threshold shows m = frac·threshold on
// average, give or take √m. The probe-side threshold is
// ceil(m + 3√m): a value at or below the full threshold crosses it by
// sampling noise alone with probability about 0.1 %, while a hitter
// well above the threshold still does. Without the margin a value of
// summed degree 3 crosses ceil(m) = 3 whenever its three occurrences
// all fall in the probe. A non-positive threshold gives 1.
func SampledThreshold(threshold int, frac float64) int {
	if threshold <= 0 {
		return 1
	}
	if frac <= 0 || frac >= 1 {
		return threshold
	}
	m := frac * float64(threshold)
	return int(math.Ceil(m + 3*math.Sqrt(m)))
}
