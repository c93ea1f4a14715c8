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

// skewChaos is the chaos sweep of the one-round skew join: every case's
// schedule must hit its routing round.
var skewChaos = testkit.Config{ChaosSpecs: testkit.OneRoundChaosSpecs, MustFault: true}

// TestSkewJoinChaosDiff faults the skew join's one round, whose light
// hash sends and heavy-hitter grid sends are distinct fragment
// populations to the injector.
func TestSkewJoinChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.TwoWayJoin(), skewChaos, algo("skewjoin"))
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
