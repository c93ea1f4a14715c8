package join2

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Chaos-differential tests: every two-way-join strategy under seeded
// fault schedules, asserting recovery, oracle equality, and (L, r, C)
// identical to the fault-free run.

func TestHashJoinChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.TwoWayJoin(), testkit.Config{}, algo("hashjoin"))
}

// TestSkewJoinChaosDiff exercises the three-round strategy: the degree
// exchange and heavy-hitter broadcast rounds give the injector three
// distinct fragment populations to fault.
func TestSkewJoinChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.TwoWayJoin(), testkit.Config{}, algo("skewjoin"))
}

// TestSortJoinChaosDiff covers the four-round sort-based join — the
// longest per-query round sequence in the package, so a mid-query crash
// has the most committed state to threaten.
func TestSortJoinChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.TwoWayJoin(), testkit.Config{}, algo("sortjoin"))
}

func TestBroadcastJoinChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.TwoWayJoin(), testkit.Config{}, algo("broadcast"))
}
