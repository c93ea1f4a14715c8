package join2

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Cross-backend differential tests: every two-way-join strategy must be
// indistinguishable — fragments, (L, r, C), traces — between the
// in-process delivery engine and the TCP transport. Correctness vs the
// oracle is the *_diff_test.go sweeps' job; these pin backend parity.

func TestHashJoinBackendDiff(t *testing.T) {
	testkit.RunBackendDiff(t, hypergraph.TwoWayJoin(), testkit.Config{}, algo("hashjoin"))
}

func TestSkewJoinBackendDiff(t *testing.T) {
	testkit.RunBackendDiff(t, hypergraph.TwoWayJoin(), testkit.Config{}, algo("skewjoin"))
}

func TestSortJoinBackendDiff(t *testing.T) {
	testkit.RunBackendDiff(t, hypergraph.TwoWayJoin(), testkit.Config{}, algo("sortjoin"))
}

// TestHashJoinChaosOverTCP: fault injection composes with the TCP
// backend — recovery replays are simulated on fragment metadata and the
// converged round commits over real sockets, so the chaos run must
// still recover, match the oracle, and meter fault-free (L, r, C).
func TestHashJoinChaosOverTCP(t *testing.T) {
	testkit.RunChaosDiffTCP(t, hypergraph.TwoWayJoin(), testkit.Config{}, algo("hashjoin"))
}

func TestSkewJoinChaosOverTCP(t *testing.T) {
	testkit.RunChaosDiffTCP(t, hypergraph.TwoWayJoin(), testkit.Config{}, algo("skewjoin"))
}
