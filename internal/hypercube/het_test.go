package hypercube

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// Heterogeneity-aware execution tests: capacity-proportional cell
// ownership must stay correct on every instance, put load where the
// capacity is, and beat the uniform plan on the capacity-normalized
// makespan.

// hetCaps returns the deterministic unequal profile the tests use:
// capacities cycling 1, 2, 4 — spanning a 4x speed ratio.
func hetCaps(p int) []float64 {
	caps := make([]float64, p)
	for i := range caps {
		caps[i] = float64(int(1) << (i % 3))
	}
	return caps
}

// hetAlgo is the hypercube descriptor's Run on a cluster carrying the
// unequal profile, which is what routes it to RunHet.
func hetAlgo() testkit.Algo {
	return func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) error {
		c.SetCapacities(hetCaps(c.P()))
		return algo("hypercube")(c, q, rels, outName, seed)
	}
}

// TestHetDiff sweeps RunHet under an unequal capacity profile over the
// full differential matrix: the virtual-cell split must never change
// the answer, whatever the skew.
func TestHetDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	testkit.RunDiff(t, hypergraph.Triangle(), cfg, hetAlgo())
}

func TestHetDiffPath(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Seeds = []int64{1, 2}
	testkit.RunDiff(t, hypergraph.Path(3), cfg, hetAlgo())
}

// TestHetChaosDiff runs the capacity-aware shuffle under fault
// injection: per-cell streams are just more fragment names, so
// recovery must hold exactly as for the uniform shuffle.
func TestHetChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.Triangle(), testkit.Config{}, hetAlgo())
}

// TestHetUniformCapsMatchesOracle pins the degenerate profile: no
// capacities attached means uniform ownership of the refined grid.
func TestHetUniformCapsMatchesOracle(t *testing.T) {
	q := hypergraph.Triangle()
	rels := testkit.GenInstance(q, testkit.SkewUniform, testkit.GenConfig{Tuples: 200}, 7)
	want := testkit.OracleJoin(q, rels)
	c := mpc.NewCluster(8, 7)
	res, err := RunHet(c, q, rels, "out", 11, LocalGeneric)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	got := testkit.GatherResult(c, "out", q.Vars())
	got.Dedup()
	if !testkit.BagEqual(got, want) {
		t.Fatalf("het with uniform caps differs from oracle: %s", testkit.DiffSample(got, want))
	}
}

// TestHetLoadFollowsCapacity checks the whole point of the cell
// apportionment: on skew-free input, a server with twice the capacity
// receives roughly twice the tuples.
func TestHetLoadFollowsCapacity(t *testing.T) {
	q := hypergraph.Triangle()
	const p, seed = 4, 3
	caps := []float64{4, 2, 1, 1}
	rels := testkit.GenInstance(q, testkit.SkewNone, testkit.GenConfig{Tuples: 800}, seed)
	c := mpc.NewCluster(p, seed)
	c.SetCapacities(caps)
	res, err := RunHet(c, q, rels, "out", 5, LocalGeneric)
	if err != nil {
		t.Fatal(err)
	}
	// Cell counts must follow the largest-remainder apportionment.
	counts := make([]int, p)
	for _, own := range res.Plan.Owner {
		counts[own]++
	}
	g := res.Plan.GridSize()
	var sumCap float64
	for _, cp := range caps {
		sumCap += cp
	}
	for i, n := range counts {
		exact := float64(g) * caps[i] / sumCap
		if float64(n) < exact-1 || float64(n) > exact+1 {
			t.Errorf("server %d owns %d cells, want %.2f ± 1 of %d", i, n, exact, g)
		}
	}
	// Received load must track capacity within a generous factor
	// (hashing is only asymptotically balanced).
	st := c.Metrics().RoundStats()[0]
	fast, slow := float64(st.Recv[0])/caps[0], (float64(st.Recv[2])+float64(st.Recv[3]))/2
	if fast > 2*slow || slow > 2*fast {
		t.Errorf("normalized loads diverge: fast %0.f vs slow mean %.0f (recv %v)", fast, slow, st.Recv)
	}
}

// TestHetBeatsUniformNormalizedMakespan is the acceptance criterion:
// on an unequal-capacity profile, capacity-aware shares must reduce
// the capacity-normalized makespan versus the uniform plan, which
// dumps load on slow machines at the same rate as fast ones.
func TestHetBeatsUniformNormalizedMakespan(t *testing.T) {
	q := hypergraph.Triangle()
	const p, seed = 8, 1
	caps := []float64{4, 4, 1, 1, 1, 1, 1, 1}
	rels := testkit.GenInstance(q, testkit.SkewNone, testkit.GenConfig{Tuples: 1200}, seed)
	want := testkit.OracleJoin(q, rels)

	cu := mpc.NewCluster(p, seed)
	if _, err := Run(cu, q, rels, "out", 9, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	uniform := cu.Metrics().NormalizedMakespan(caps)

	ch := mpc.NewCluster(p, seed)
	ch.SetCapacities(caps)
	if _, err := RunHet(ch, q, rels, "out", 9, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	het := ch.Metrics().NormalizedMakespan(caps)

	got := testkit.GatherResult(ch, "out", q.Vars())
	got.Dedup()
	if !testkit.BagEqual(got, want) {
		t.Fatalf("het result differs from oracle: %s", testkit.DiffSample(got, want))
	}
	if het >= uniform {
		t.Errorf("het normalized makespan %.1f not below uniform %.1f", het, uniform)
	}
}
