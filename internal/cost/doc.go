// Package cost collects the tutorial's analytic cost formulas and the
// planner-facing cost descriptors built on them.
//
// The formula half (cost.go): Chernoff tail bounds for hash-partition
// load with and without skew (slides 24–25), the skew-threshold curve
// of slide 26, the HyperCube load formulas and the skew exponent ψ*
// (slides 40 and 47), the communication/round lower bounds for joins,
// sorting, and matrix multiplication (slides 56, 105, 123–125), and
// the GYM-vs-HyperCube crossover (slide 78). Benchmarks compare these
// predictions against loads measured on the simulator.
//
// The descriptor half (plannable.go): Plannable is how an algorithm is
// declared, once, in its own package — its name, Applies (which queries
// it can run), Predict (its (L, r, C) from the QueryStats the planner
// collects once per query) and Run (the entry point). internal/core
// dispatches through the descriptors; internal/plan ranks them.
//
// The heterogeneity half (het.go) extends shares optimization to
// machines with unequal capacity ("Parallel Query Processing with
// Heterogeneous Machines", arXiv 2501.08896): EffectiveParallelism
// maps a capacity vector to the uniform-server count a heterogeneous
// cluster is worth, ApportionCells splits a share grid across servers
// proportionally to capacity, and NormalizedMakespan is the objective
// (max load over capacity) those splits minimize.
package cost
