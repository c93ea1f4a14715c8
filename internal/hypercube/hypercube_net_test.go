package hypercube

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Cross-backend differential tests: HyperCube's one-round shuffle and
// the three-round skew-aware variant must be indistinguishable between
// the in-process engine and the TCP transport on every (skew, p, seed)
// cell — bit-identical fragments, (L, r, C) ledgers, and trace events.

func TestHyperCubeBackendDiff(t *testing.T) {
	for _, q := range []hypergraph.Query{
		hypergraph.Triangle(),
		hypergraph.Path(3),
	} {
		testkit.RunBackendDiff(t, q, testkit.Config{}, algo("hypercube"))
	}
}

func TestSkewHCBackendDiff(t *testing.T) {
	testkit.RunBackendDiff(t, hypergraph.Triangle(), testkit.Config{}, algo("skewhc"))
}

// TestHyperCubeChaosOverTCP: the recovery driver's replayed commit must
// cross the wire and still be bit-identical to the fault-free run.
func TestHyperCubeChaosOverTCP(t *testing.T) {
	testkit.RunChaosDiffTCP(t, hypergraph.Triangle(), testkit.Config{}, algo("hypercube"))
}
