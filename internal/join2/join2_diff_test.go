package join2

import (
	"testing"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Differential tests: all four two-way-join strategies vs the
// sequential oracle on R(x,y) ⋈ S(y,z), across cluster sizes, seeds and
// input skews, with exact round counts per strategy.

// algo returns the Run of this package's descriptor for name — the
// entry point core.Engine dispatches to.
func algo(name string) testkit.Algo { return cost.Lookup(Plannables(), name).Run }

func fixedRounds(n int) func(hypergraph.Query, int) int {
	return func(hypergraph.Query, int) int { return n }
}

// TestHashJoinDiff: the one-round hash repartition join. τ* = 1, so on
// skew-free inputs L ≤ 4·IN/p + slack (factor 4 covers hash-placement
// variance around the IN/p mean at these input sizes).
func TestHashJoinDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Rounds = fixedRounds(1)
	cfg.LoadFactor = 4.0
	testkit.RunDiff(t, hypergraph.TwoWayJoin(), cfg, algo("hashjoin"))
}

// TestBroadcastJoinDiff: one round, the smaller side replicated
// everywhere. No load bound asserted — broadcast load is p·|R|/p + |S|/p
// by design, not IN/p.
func TestBroadcastJoinDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Rounds = fixedRounds(1)
	testkit.RunDiff(t, hypergraph.TwoWayJoin(), cfg, algo("broadcast"))
}

// TestSkewJoinDiff: the skew-resilient join on servers that know the
// heavy hitters — one round, the hybrid shuffle. The skewed
// distributions in the sweep put heavy hitters on the join attribute y.
func TestSkewJoinDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Rounds = fixedRounds(1)
	testkit.RunDiff(t, hypergraph.TwoWayJoin(), cfg, algo("skewjoin"))
}

// TestSortJoinDiff: the four-round sort-based join (2 PSRS rounds +
// boundary exchange + crossing-value fixup).
func TestSortJoinDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Rounds = fixedRounds(4)
	testkit.RunDiff(t, hypergraph.TwoWayJoin(), cfg, algo("sortjoin"))
}
