package experiments

import (
	"fmt"

	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/testkit"
)

// E28Adaptive measures the two mid-2020s extensions of the tutorial's
// one-shot planning story (methodology in EXPERIMENTS.md §E28).
//
// Part A — mispredicted skew. On instances whose planted heavy hitter
// a static planner with optimistic statistics would miss
// (testkit.GenMispredicted), three executions of the same query are
// compared: the static uniform HyperCube plan (what the misprediction
// costs), the adaptive driver (a counted uniform plan, then a switch to
// SkewHC), and the static SkewHC plan (the oracle that knew the skew up
// front, finding its heavy hitters in two rounds). The adaptive run
// must land strictly below static uniform and meter exactly the
// oracle's (L, r, C), plus the one control step of its count; both are
// asserted, not just reported.
//
// Part B — heterogeneous capacities. On a skew-free instance, the
// uniform HyperCube plan is compared against the capacity-aware box
// layout (hypercube.RunHet) across increasingly unequal capacity
// profiles. The metric is the capacity-normalized makespan
// max_i(received_i / c_i) — per-round wall-clock time when server i
// processes c_i tuples per tick. The het plan must reduce it on every
// unequal profile; that too is asserted. The oracle column is the
// uniform plan's C / Σc: its traffic spread in exact proportion to
// capacity, a bound that does not depend on the het run.
func E28Adaptive() (*Table, error) {
	t := &Table{
		ID: "E28", Title: "adaptive execution under mispredicted skew; capacity-aware shares",
		SlideRef: "beyond the tutorial: skew-reactive re-planning (EXPERIMENTS.md §E28), het shares per arXiv 2501.08896",
		Header:   []string{"part", "workload", "p", "static L", "adaptive/het", "oracle L", "switched"},
	}

	// Part A: mispredicted skew, uniform vs adaptive vs SkewHC oracle.
	const p, seed = 16, 3
	for _, w := range []struct {
		name string
		q    hypergraph.Query
		gen  testkit.GenConfig
	}{
		{"triangle", hypergraph.Triangle(), testkit.GenConfig{Tuples: 480, HeavyFrac: 0.5}},
		{"star3", hypergraph.Star(3), testkit.GenConfig{Tuples: 240, HeavyFrac: 0.2}},
	} {
		rels := testkit.GenMispredicted(w.q, w.gen, seed)

		cu := mpc.NewCluster(p, seed)
		if _, err := hypercube.Run(cu, w.q, rels, "out", 42, hypercube.LocalGeneric); err != nil {
			return nil, fmt.Errorf("%s uniform: %w", w.name, err)
		}
		uniformL := cu.Metrics().MaxLoad()

		ca := mpc.NewCluster(p, seed)
		res, err := hypercube.RunAdaptive(ca, w.q, rels, "out", 42)
		if err != nil {
			return nil, fmt.Errorf("%s adaptive: %w", w.name, err)
		}
		if !res.Switched {
			return nil, fmt.Errorf("%s: adaptive run did not switch: %s", w.name, res.Reason)
		}
		am := ca.Metrics()

		cs := mpc.NewCluster(p, seed)
		if _, err := hypercube.RunSkewHC(cs, w.q, rels, "out", 42, 0, hypercube.LocalGeneric); err != nil {
			return nil, fmt.Errorf("%s skewhc: %w", w.name, err)
		}
		om := cs.Metrics()

		if am.MaxLoad() >= uniformL {
			return nil, fmt.Errorf("%s: adaptive L=%d not below static uniform L=%d", w.name, am.MaxLoad(), uniformL)
		}
		if am.MaxLoad() != om.MaxLoad() || am.Rounds() != om.Rounds() || am.TotalComm() != om.TotalComm() || am.ControlSteps() != 1 {
			return nil, fmt.Errorf("%s: adaptive (L, r, C) = (%d, %d, %d) with %d control steps; the SkewHC oracle meters (%d, %d, %d)",
				w.name, am.MaxLoad(), am.Rounds(), am.TotalComm(), am.ControlSteps(), om.MaxLoad(), om.Rounds(), om.TotalComm())
		}
		t.AddRow("A", w.name+" (mispredicted)", fmtInt(int64(p)), fmtInt(uniformL),
			fmt.Sprintf("%d (r %d + %d ctl, C %d)", am.MaxLoad(), am.Rounds(), am.ControlSteps(), am.TotalComm()),
			fmt.Sprintf("%d (r %d, C %d)", om.MaxLoad(), om.Rounds(), om.TotalComm()), "yes")
	}
	t.Note("A: adaptive counts the uniform plan's receive vector in one control step (ctl, p words per server), confirms")
	t.Note("   its trigger with SkewHC's two detection rounds and switches; it routes no tuple under the mispredicted plan,")
	t.Note("   so it meters the SkewHC oracle's (L, r, C) exactly, below static uniform (what the misprediction costs).")

	// Part B: capacity-normalized makespan, uniform vs box layout.
	q := hypergraph.Triangle()
	rels := testkit.GenInstance(q, testkit.SkewNone, testkit.GenConfig{Tuples: 1200}, 1)
	for _, prof := range []struct {
		name string
		caps []float64
	}{
		{"half at 2× (2:1)", []float64{2, 1, 2, 1, 2, 1, 2, 1}},
		{"2 fast of 8 (4:1)", []float64{4, 4, 1, 1, 1, 1, 1, 1}},
		{"tiers 4:2:1", []float64{4, 4, 2, 2, 1, 1, 1, 1}},
		{"one fast (8:1)", []float64{8, 1, 1, 1, 1, 1, 1, 1}},
	} {
		pb := len(prof.caps)
		cu := mpc.NewCluster(pb, 1)
		if _, err := hypercube.Run(cu, q, rels, "out", 9, hypercube.LocalGeneric); err != nil {
			return nil, fmt.Errorf("uniform/%s: %w", prof.name, err)
		}
		uniformMk := cu.Metrics().NormalizedMakespan(prof.caps)

		ch := mpc.NewCluster(pb, 1)
		ch.SetCapacities(prof.caps)
		if _, err := hypercube.RunHet(ch, q, rels, "out", 9, hypercube.LocalGeneric); err != nil {
			return nil, fmt.Errorf("het/%s: %w", prof.name, err)
		}
		hetMk := ch.Metrics().NormalizedMakespan(prof.caps)

		if hetMk >= uniformMk {
			return nil, fmt.Errorf("%s: het makespan %.1f not below uniform %.1f", prof.name, hetMk, uniformMk)
		}
		// The fluid bound of the uniform plan: its traffic split in
		// exact proportion to capacity.
		var sumCap float64
		for _, cp := range prof.caps {
			sumCap += cp
		}
		ideal := float64(cu.Metrics().TotalComm()) / sumCap
		t.AddRow("B", prof.name, fmtInt(int64(pb)),
			fmtF(uniformMk), fmtF(hetMk), fmtF(ideal), "-")
	}
	t.Note("B: makespan = max_i(received_i / c_i) on a skew-free triangle; the uniform plan is slowest-machine-bound,")
	t.Note("   a box of the grid per server ships load where the capacity is (oracle column: uniform C / Σc, the fluid bound).")
	return t, nil
}
