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

// TestSkewHCChaosDiff covers the three-round skew-aware variant: its
// heavy-pattern broadcast round exercises recovery of broadcast-shaped
// fragment sets (p fragments per source).
func TestSkewHCChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.Triangle(), testkit.Config{}, algo("skewhc"))
}
