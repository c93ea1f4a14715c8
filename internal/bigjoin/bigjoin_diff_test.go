package bigjoin

import (
	"testing"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
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
func TestBiGJoinDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Rounds = planRounds
	for _, q := range []hypergraph.Query{
		hypergraph.Triangle(),
		hypergraph.Path(3),
		hypergraph.Star(3),
	} {
		testkit.RunDiff(t, q, cfg, algo("bigjoin"))
	}
}

// TestBiGJoinBagInputs runs BiGJoin on bag inputs — every relation
// holds each of its rows twice, on top of the repeats a small domain
// draws — and compares the gathered output without deduplicating it:
// each answer must appear exactly once, as in the oracle. The shapes
// cover a verify round (triangle), extensions only (path, star), the
// plans with no step (a single atom; two atoms over one variable set,
// filtered by a seed verifier) and a Cartesian extension (product).
func TestBiGJoinBagInputs(t *testing.T) {
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
		for _, p := range []int{2, 4, 8} {
			for seed := int64(1); seed <= 5; seed++ {
				rels := map[string]*relation.Relation{}
				for i, a := range q.Atoms {
					r := testkit.GenRelation(a.Name, a.Vars, testkit.SkewUniform,
						testkit.GenConfig{Tuples: 40, Domain: 6}, seed*10+int64(i))
					r.AppendAll(r.Clone())
					rels[a.Name] = r
				}
				want := testkit.OracleJoin(q, rels)
				pl, err := NewPlan(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				c := mpc.NewCluster(p, seed)
				Run(c, pl, rels, "out", uint64(seed))
				got := testkit.GatherResult(c, "out", q.Vars())
				if !testkit.BagEqual(got, want) {
					t.Fatalf("%s p=%d seed=%d: %s", q.Name, p, seed, testkit.DiffSample(got, want))
				}
				testkit.AssertRounds(t, c, pl.Rounds())
			}
		}
	}
}
