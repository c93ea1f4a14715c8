// Package experiments regenerates every table- and figure-like artifact
// of the tutorial's slides (the per-experiment index lives in
// DESIGN.md). Each experiment is a function returning a Table of
// paper-formula vs. simulator-measured values, or an error;
// cmd/mpcbench prints them, and TestExperiments holds each table to
// its block in EXPERIMENTS.md (`-update` rewrites the blocks).
//
// Scales are chosen so the whole suite runs on a laptop in seconds; the
// quantities under study (loads, rounds, communication — all relative
// to IN and p) are scale-free, which is what makes the comparison to
// the slides meaningful.
//
// Experiments assert their own claims: a row whose measured value
// contradicts the theory it illustrates fails the experiment with an
// error rather than printing a quietly wrong table, so TestExperiments
// doubles as an invariant sweep. E21+ extend past the tutorial proper
// (sparse matmul, multi-round joins, recursion, serving, and E28's
// adaptive skew-reactive execution with heterogeneity-aware shares);
// each cites its methodology section in EXPERIMENTS.md.
package experiments
