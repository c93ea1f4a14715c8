package bigjoin

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Chaos-differential tests: BiGJoin under seeded fault schedules. The
// variable-elimination plan runs a setup round plus one extend round
// per step, so recovery must keep a long chain of dependent rounds
// bit-for-bit on the fault-free trajectory.

func TestBiGJoinChaosDiff(t *testing.T) {
	for _, q := range []hypergraph.Query{
		hypergraph.Triangle(),
		hypergraph.Path(3),
	} {
		testkit.RunChaosDiff(t, q, testkit.Config{}, algo("bigjoin"))
	}
}
