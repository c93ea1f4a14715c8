package hypercube

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Chaos-differential tests: HyperCube and SkewHC under seeded fault
// schedules. The recovery driver must converge on every schedule and
// commit output and (L, r, C) identical to the fault-free run — the
// one-round shuffle is the simplest victim (one big fragment set, no
// multi-round state to hide behind).

func TestHyperCubeChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.Triangle(), testkit.Config{}, algo("hypercube"))
}

// TestSkewHCChaosDiff covers the one-round skew-aware variant: its
// pattern shuffle replicates each tuple onto several sub-grids, one
// stream per pattern, and every case's schedule must hit it.
func TestSkewHCChaosDiff(t *testing.T) {
	cfg := testkit.Config{ChaosSpecs: testkit.OneRoundChaosSpecs, MustFault: true}
	testkit.RunChaosDiff(t, hypergraph.Triangle(), cfg, algo("skewhc"))
}
