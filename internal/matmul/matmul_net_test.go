package matmul

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/testkit"
)

// Cross-backend differential tests: the SQL-on-MPC matrix multiply
// (join round + aggregation round over (i,j,k) streams) must be
// indistinguishable between the in-process engine and the TCP
// transport. The dense block algorithms pick their own grid from p, so
// the sweep pins p to sizes every variant accepts.

func TestSQLJoinAggregateBackendDiff(t *testing.T) {
	cfg := testkit.Config{Ps: []int{2, 4, 7}}
	testkit.SweepBackends(t, cfg, func(t *testing.T, c *mpc.Cluster, p int, seed int64, skew testkit.Skew) {
		const n = 10
		a, b := Random(n, n, 7, seed), Random(n, n, 7, seed+100)
		if _, err := SQLJoinAggregate(c, a, b, uint64(seed)); err != nil {
			t.Fatalf("SQLJoinAggregate: %v", err)
		}
	})
}

func TestRectangleBlockBackendDiff(t *testing.T) {
	cfg := testkit.Config{Ps: []int{1, 4}, Seeds: []int64{1, 2}}
	testkit.SweepBackends(t, cfg, func(t *testing.T, c *mpc.Cluster, p int, seed int64, skew testkit.Skew) {
		const n = 12
		a, b := Random(n, n, 9, seed), Random(n, n, 9, seed+100)
		if _, err := RectangleBlock(c, a, b); err != nil {
			t.Fatalf("RectangleBlock: %v", err)
		}
	})
}
