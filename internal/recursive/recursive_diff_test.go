package recursive

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/workload"
)

// genGraph draws a seeded random graph: uniform-degree under SkewNone/
// SkewUniform, heavy-tailed (preferential attachment — the Zipf-degree
// regime) otherwise. Self-loops are planted explicitly since the
// generators exclude them, so the graph stays a set, as every input.
func genGraph(skew testkit.Skew, seed int64) *relation.Relation {
	n, m := 40, 90
	var g *relation.Relation
	if skew.Skewed() {
		g = workload.PowerLawGraph("E", "src", "dst", n, m, seed)
	} else {
		g = workload.RandomGraph("E", "src", "dst", n, m, seed)
	}
	g.AppendRow([]relation.Value{relation.Value(seed % int64(n)), relation.Value(seed % int64(n))})
	return g
}

// TestSemiNaiveTCDiff sweeps transitive closure against the naive
// fixpoint oracle: (p, seed, skew) matrix, exact round accounting
// (one metered round per iteration), and trace consistency.
func TestSemiNaiveTCDiff(t *testing.T) {
	testkit.Sweep(t, testkit.Config{}, func(t *testing.T, p int, seed int64, skew testkit.Skew) {
		edges := genGraph(skew, seed)
		c := mpc.NewCluster(p, seed)
		res, err := TransitiveClosure(c, edges, "tc", uint64(seed)*0x9e3779b9+uint64(p))
		if err != nil {
			t.Fatal(err)
		}
		want := testkit.OracleFixpoint("tc", edges)
		got := gatherSorted(c, "tc", []string{"src", "dst"})
		if !testkit.BagEqual(got, want) {
			t.Fatalf("closure differs from naive fixpoint: %s", testkit.DiffSample(got, want))
		}
		if res.Rounds != res.Iterations {
			t.Errorf("rounds = %d over %d iterations, want exactly 1 per iteration", res.Rounds, res.Iterations)
		}
		testkit.AssertRounds(t, c, res.Rounds)
	})
}

// TestReachableDiff sweeps reachability-from-sources against its naive
// oracle, with source sets drawn from the graph plus one vertex with
// no outgoing edges.
func TestReachableDiff(t *testing.T) {
	testkit.Sweep(t, testkit.Config{}, func(t *testing.T, p int, seed int64, skew testkit.Skew) {
		edges := genGraph(skew, seed)
		sources := []relation.Value{
			edges.Row(0)[0],
			edges.Row(edges.Len() / 2)[1],
			relation.Value(1_000_000 + seed), // not in the graph
		}
		c := mpc.NewCluster(p, seed)
		res, err := Reachable(c, edges, sources, "reach", uint64(seed)+uint64(p)<<16)
		if err != nil {
			t.Fatal(err)
		}
		want := testkit.OracleReachable("reach", edges, sources)
		got := gatherSorted(c, "reach", []string{"src"})
		if !testkit.BagEqual(got, want) {
			t.Fatalf("reachability differs from oracle: %s", testkit.DiffSample(got, want))
		}
		if res.Rounds != res.Iterations {
			t.Errorf("rounds = %d over %d iterations, want exactly 1 per iteration", res.Rounds, res.Iterations)
		}
	})
}

// TestConnectedComponentsDiff sweeps min-label propagation against the
// naive component oracle.
func TestConnectedComponentsDiff(t *testing.T) {
	testkit.Sweep(t, testkit.Config{}, func(t *testing.T, p int, seed int64, skew testkit.Skew) {
		edges := genGraph(skew, seed)
		c := mpc.NewCluster(p, seed)
		res, err := ConnectedComponents(c, edges, "cc", uint64(seed)*31+uint64(p))
		if err != nil {
			t.Fatal(err)
		}
		want := testkit.OracleComponents("cc", edges)
		got := gatherSorted(c, "cc", []string{"v", "comp"})
		if !testkit.BagEqual(got, want) {
			t.Fatalf("components differ from oracle: %s", testkit.DiffSample(got, want))
		}
		if res.Rounds != res.Iterations {
			t.Errorf("rounds = %d over %d iterations, want exactly 1 per iteration", res.Rounds, res.Iterations)
		}
	})
}

// TestFixpointDeterminism pins bit-for-bit reproducibility: two runs
// of the same evaluation produce identical fragments on every server,
// not merely the same gathered set.
func TestFixpointDeterminism(t *testing.T) {
	edges := genGraph(testkit.SkewZipf, 3)
	a, b := mpc.NewCluster(4, 9), mpc.NewCluster(4, 9)
	if _, err := TransitiveClosure(a, edges, "tc", 77); err != nil {
		t.Fatal(err)
	}
	if _, err := TransitiveClosure(b, edges, "tc", 77); err != nil {
		t.Fatal(err)
	}
	testkit.AssertSameFragments(t, a, b)
	testkit.AssertSameLRC(t, a, b)
}
