package recursive

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// Cross-backend differential tests: SweepBackends runs each workload
// on the in-process transport and the TCP backend and asserts the two
// runs indistinguishable — same fragments, same (L, r, C), same trace.
// Fixpoint evaluation is the stress case for that guarantee: iteration
// count is data-dependent, so a backend that perturbed delivery order
// or dropped a delta row would diverge in round count, not just
// content.

func TestSemiNaiveTCBackendDiff(t *testing.T) {
	testkit.SweepBackends(t, testkit.Config{}, func(t *testing.T, c *mpc.Cluster, p int, seed int64, skew testkit.Skew) {
		edges := genGraph(skew, seed)
		if _, err := TransitiveClosure(c, edges, "tc", uint64(seed)*29+uint64(p)); err != nil {
			t.Fatalf("transitive closure: %v", err)
		}
	})
}

func TestConnectedComponentsBackendDiff(t *testing.T) {
	testkit.SweepBackends(t, testkit.Config{}, func(t *testing.T, c *mpc.Cluster, p int, seed int64, skew testkit.Skew) {
		edges := genGraph(skew, seed)
		if _, err := ConnectedComponents(c, edges, "cc", uint64(seed)*37+uint64(p)); err != nil {
			t.Fatalf("connected components: %v", err)
		}
	})
}

// TestIVMBackendDiff runs a standing closure through its initial
// fixpoint plus one insert/delete batch on both backends: the
// maintained view's fragments and per-round metering must agree
// exactly.
func TestIVMBackendDiff(t *testing.T) {
	testkit.SweepBackends(t, testkit.Config{}, func(t *testing.T, c *mpc.Cluster, p int, seed int64, skew testkit.Skew) {
		edges := genGraph(skew, seed)
		view, _, err := NewClosureView(c, edges, "tcv", uint64(seed)*41+uint64(p))
		if err != nil {
			t.Fatalf("closure view: %v", err)
		}
		setOps := testkit.GenSetOps(map[string]*relation.Relation{"E": edges}, 12, 40, seed*11)
		ops := make([]EdgeOp, len(setOps))
		for i, op := range setOps {
			ops[i] = EdgeOp{Insert: op.Insert, From: op.Row[0], To: op.Row[1]}
		}
		stats, err := view.ApplyBatch(ops)
		if err != nil {
			t.Fatalf("apply batch: %v", err)
		}
		if stats.Rounds == 0 {
			t.Fatal("the batch ran no round, so the backends compared only the initial fixpoint")
		}
	})
}
