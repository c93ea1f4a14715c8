package yannakakis

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Chaos-differential tests: the distributed Yannakakis variants under
// seeded fault schedules. Semijoin passes are stateful across many
// rounds — a crash that silently lost a reducer fragment would
// propagate dangling tuples into every later round — so these are the
// algorithms where "recovers bit-for-bit or fails loudly" matters most.

func chaosCfg() testkit.Config {
	cfg := testkit.Config{}
	cfg.Gen = diffGen()
	return cfg
}

func TestGYMChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.Path(3), chaosCfg(), algo("gym"))
}

func TestGYMOptimizedChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.SlideTree(), chaosCfg(), algo("gym-opt"))
}

func TestIterativeBinaryJoinChaosDiff(t *testing.T) {
	testkit.RunChaosDiff(t, hypergraph.Star(4), chaosCfg(), algo("binaryplan"))
}
