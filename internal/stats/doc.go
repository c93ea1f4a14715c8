// Package stats computes the data statistics that skew-aware MPC
// algorithms consume: heavy hitters against the tutorial's thresholds,
// and the quantiles and Gini coefficient of a per-server load vector.
//
// A value is heavy when its degree reaches IN/p in R or in
// S (slide 29, two-way joins) or N/p summed over the atoms binding a
// variable (slide 47, SkewHC). Heavy decides both rules, with the exact
// per-column degrees, by a hash-bucket prefilter plus an exact count of
// the hot buckets, on a driver that holds the relations: the planner
// and a skew descriptor handed no Known call it. Its one
// counterpart on servers that hold only fragments is cost.DetectHeavy,
// the tutorial's two detection rounds, which returns exactly what Heavy
// returns on the union of the fragments; the in-round skew algorithms
// all call that.
package stats
