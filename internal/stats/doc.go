// Package stats computes the data statistics that skew-aware MPC
// algorithms consume, and the per-round feedback signal E28's adaptive
// driver reacts to.
//
// The static half is heavy-hitter detection against the tutorial's
// thresholds: a value is heavy when its degree reaches IN/p in R or in
// S (slide 29, two-way joins) or N/p summed over the atoms binding a
// variable (slide 47, SkewHC). Heavy decides both rules, with the exact
// per-column degrees, by a hash-bucket prefilter plus an exact count of
// the hot buckets, on a driver that holds the relations: the planner,
// the adaptive probe and a skew descriptor handed no Known call it. Its one
// counterpart on servers that hold only fragments is cost.DetectHeavy,
// the tutorial's two detection rounds, which returns exactly what Heavy
// returns on the union of the fragments; the in-round skew algorithms
// all call that.
//
// The dynamic half (signal.go) summarizes one metered round's
// per-server receive vector into a RecvSignal — max load, mean,
// imbalance ratio max/mean, and Gini coefficient — which the adaptive
// driver (internal/hypercube RunAdaptive, run by experiment E28, not by
// the engine) thresholds to decide whether to abandon the uniform
// HyperCube plan mid-query and re-plan onto the skew-aware path.
// SampledThreshold scales a full-input heavy-hitter threshold down to
// the probe prefix the driver actually observed, plus a margin for the
// prefix's sampling noise.
package stats
