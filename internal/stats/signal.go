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
// a probe that observed only a frac fraction of the input: a value
// with full-input degree d is expected to show degree frac·d in the
// probe, so the probe-side threshold is ceil(frac·threshold), floored
// at 1 so a degenerate probe never declares every value heavy-free.
func SampledThreshold(threshold int, frac float64) int {
	if threshold <= 0 {
		return 1
	}
	if frac <= 0 || frac >= 1 {
		return threshold
	}
	t := int(math.Ceil(frac * float64(threshold)))
	if t < 1 {
		t = 1
	}
	return t
}
