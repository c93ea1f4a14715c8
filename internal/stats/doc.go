// Package stats computes the data statistics that skew-aware MPC
// algorithms consume, and the per-round feedback signal the adaptive
// executor reacts to.
//
// The static half is per-value degree (frequency) counting of join
// attributes and heavy-hitter detection against the tutorial's
// thresholds: a value is heavy when its degree exceeds IN/p (slide 29
// for two-way joins; N/p for SkewHC on slide 47). Degrees merge across
// fragments, so drivers can aggregate per-server counts into a global
// view; counting is by attribute name (DegreesOf) or, for the planners'
// positional relations, by column index (DegreesOfCol); and
// JoinHeavyHitters applies the threshold to both sides of a two-way
// join at once.
//
// The dynamic half (signal.go) summarizes one metered round's
// per-server receive vector into a RecvSignal — max load, mean,
// imbalance ratio max/mean, and Gini coefficient — which the adaptive
// layer (internal/hypercube RunAdaptive) thresholds to decide whether
// to abandon the uniform HyperCube plan mid-query and re-plan onto the
// skew-aware path. SampledThreshold scales a full-input heavy-hitter
// threshold down to the probe prefix the adaptive layer actually
// observed.
package stats
