package recursive

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/testkit"
)

// Chaos-differential tests for the fixpoint kernel. The schedule list
// is FixpointChaosSpecs, whose after= entries delay fault onset past
// the first iterations so crashes and drops land *between* fixpoint
// iterations — the regime where a recovery bug would corrupt the
// standing delta rather than a single shuffle. Every schedule must
// fault at least once, and recovery must be invisible: bit-for-bit
// identical fragments and identical per-round ledgers.

func runFixpointChaos(t *testing.T, name string, run func(c *mpc.Cluster, p int, seed int64, skew testkit.Skew) error) {
	t.Helper()
	testkit.SweepChaos(t, testkit.Config{ChaosSpecs: testkit.FixpointChaosSpecs},
		func(t *testing.T, p int, seed int64, skew testkit.Skew, spec string) {
			clean := mpc.NewCluster(p, seed)
			if err := run(clean, p, seed, skew); err != nil {
				t.Fatalf("fault-free %s: %v", name, err)
			}
			chaotic := testkit.NewChaosCluster(p, seed, spec)
			if err := run(chaotic, p, seed, skew); err != nil {
				t.Fatalf("chaos %s: %v", name, err)
			}
			testkit.AssertRecovered(t, chaotic)
			testkit.AssertFaulted(t, chaotic)
			testkit.AssertSameLRC(t, clean, chaotic)
			testkit.AssertSameFragments(t, clean, chaotic)
		})
}

func TestSemiNaiveTCChaos(t *testing.T) {
	runFixpointChaos(t, "transitive closure", func(c *mpc.Cluster, p int, seed int64, skew testkit.Skew) error {
		edges := genGraph(skew, seed)
		_, err := TransitiveClosure(c, edges, "tc", 0x5eed+uint64(p))
		return err
	})
}

func TestConnectedComponentsChaos(t *testing.T) {
	runFixpointChaos(t, "connected components", func(c *mpc.Cluster, p int, seed int64, skew testkit.Skew) error {
		edges := genGraph(skew, seed)
		_, err := ConnectedComponents(c, edges, "cc", 0xcc+uint64(p))
		return err
	})
}

// TestClosureViewChaos exercises the IVM pipeline — initial closure,
// a mixed insert/delete batch (delete phase incl. over-delete and
// rederivation), then an insert-only batch — under the same schedules.
func TestClosureViewChaos(t *testing.T) {
	runFixpointChaos(t, "closure view", func(c *mpc.Cluster, p int, seed int64, skew testkit.Skew) error {
		edges := genGraph(skew, seed)
		view, _, err := NewClosureView(c, edges, "tcv", 0x1f+uint64(p))
		if err != nil {
			return err
		}
		e0, e1 := edges.Row(0), edges.Row(1)
		if _, err := view.ApplyBatch([]EdgeOp{
			{Insert: false, From: e0[0], To: e0[1]},
			{Insert: true, From: e1[1], To: e0[0]},
		}); err != nil {
			return err
		}
		_, err = view.ApplyBatch([]EdgeOp{{Insert: true, From: 1, To: 2}})
		return err
	})
}
