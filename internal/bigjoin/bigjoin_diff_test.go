package bigjoin

import (
	"testing"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Differential tests: BiGJoin (distributed generic join by variable
// elimination) vs the sequential oracle, with the plan-derived exact
// round count (1 setup + one extend per step + one per verifier).

// algo returns the Run of this package's descriptor for name — the
// entry point core.Engine dispatches to.
func algo(name string) testkit.Algo { return cost.Lookup(Plannables(), name).Run }

func planRounds(q hypergraph.Query, p int) int {
	pl, err := NewPlan(q, nil)
	if err != nil {
		panic(err)
	}
	return pl.Rounds()
}

// TestBiGJoinDiff sweeps BiGJoin over cyclic and acyclic shapes and all
// four input distributions. The round count is a function of the plan
// alone (never of p or the data), which the assertion pins per query.
// Besides a verify round (triangle) and extensions only (path, star),
// the shapes cover the plans with no extension (a single atom; two
// atoms over one variable set, filtered by a seed verifier) and a
// Cartesian extension (product).
func TestBiGJoinDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Rounds = planRounds
	for _, q := range []hypergraph.Query{
		hypergraph.Triangle(),
		hypergraph.Path(3),
		hypergraph.Star(3),
		hypergraph.NewQuery("single", hypergraph.Atom{Name: "R", Vars: []string{"x", "y"}}),
		hypergraph.NewQuery("twice",
			hypergraph.Atom{Name: "R", Vars: []string{"x", "y"}},
			hypergraph.Atom{Name: "S", Vars: []string{"y", "x"}}),
		hypergraph.CartesianProduct(),
	} {
		testkit.RunDiff(t, q, cfg, algo("bigjoin"))
	}
}
