package hypercube

import (
	"fmt"
	"testing"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// Differential tests: HyperCube and SkewHC vs the sequential testkit
// oracle across cluster sizes, seeds and input skews, with exact round
// counts and the one-round load bound on skew-free inputs.

// algo returns the Run of this package's descriptor for name — the
// entry point core.Engine dispatches to.
func algo(name string) testkit.Algo { return cost.Lookup(Plannables(), name).Run }

// TestHyperCubeDiff sweeps the one-round HyperCube over the canonical
// query shapes and all four input distributions. r must be exactly 1
// (the scatter is free initial placement).
func TestHyperCubeDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Rounds = func(q hypergraph.Query, p int) int { return 1 }
	for _, q := range []hypergraph.Query{
		hypergraph.Triangle(),
		hypergraph.Path(3),
		hypergraph.Star(3),
		hypergraph.Cycle(4),
	} {
		testkit.RunDiff(t, q, cfg, algo("hypercube"))
	}
}

// TestHyperCubeLocalAlgsDiff cross-checks both local evaluators on the
// triangle — same shuffle, different local join.
func TestHyperCubeLocalAlgsDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Seeds = []int64{1, 2, 3, 4, 5}
	cfg.Rounds = func(q hypergraph.Query, p int) int { return 1 }
	for _, alg := range []LocalAlg{LocalGeneric, LocalBinary} {
		testkit.RunDiff(t, hypergraph.Triangle(), cfg,
			func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) error {
				_, err := Run(c, q, rels, outName, seed, alg)
				return err
			})
	}
}

// TestSkewHCDiff sweeps the three-round skew-aware variant over skewed
// inputs — the regime it exists for — plus skew-free ones (where the
// heavy pattern set degenerates and it must still be correct).
func TestSkewHCDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Rounds = func(q hypergraph.Query, p int) int { return 3 }
	for _, q := range []hypergraph.Query{
		hypergraph.Triangle(),
		hypergraph.Path(3),
	} {
		testkit.RunDiff(t, q, cfg, algo("skewhc"))
	}
}

// TestTriangleLoadBound asserts the headline theory claim of the paper
// on skew-free inputs: HyperCube computes the triangle with per-server
// load L = O(IN/p^{2/3}) (τ* = 3/2) in one round. Cluster sizes are
// perfect cubes so the LP shares are exact integers (p^{1/3} each) and
// no rounding loss muddies the constant.
//
// Factor 3.0 is the documented constant: each server receives three
// relation fragments, each of expected size (IN/3)/p^{2/3}, so the mean
// load is exactly IN/p^{2/3}; the factor absorbs hash-placement
// variance around that mean on finite inputs (observed ≤ 2.1× at these
// sizes), and LoadSlack the ±1-per-stream quantization.
func TestTriangleLoadBound(t *testing.T) {
	q := hypergraph.Triangle()
	gen := testkit.GenConfig{Tuples: 400}
	const factor = 3.0
	const slack = 16
	for _, p := range []int{8, 27, 64} {
		for _, seed := range []int64{1, 2, 3, 4, 5} {
			p, seed := p, seed
			t.Run(fmt.Sprintf("p%d/seed%d", p, seed), func(t *testing.T) {
				rels := testkit.GenInstance(q, testkit.SkewNone, gen, seed)
				c := mpc.NewCluster(p, seed)
				if _, err := Run(c, q, rels, "out", uint64(seed), LocalGeneric); err != nil {
					t.Fatalf("hypercube: %v", err)
				}
				testkit.AssertRounds(t, c, 1)
				testkit.AssertLoadBound(t, c, q, testkit.InputSize(q, rels), p, factor, slack)
				got := testkit.GatherResult(c, "out", q.Vars())
				got.Dedup()
				if want := testkit.OracleJoin(q, rels); !testkit.BagEqual(got, want) {
					t.Errorf("differential mismatch: %s", testkit.DiffSample(got, want))
				}
			})
		}
	}
}
