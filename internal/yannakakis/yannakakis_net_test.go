package yannakakis

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Cross-backend differential tests: the semijoin-program rounds of
// distributed Yannakakis (many small keyed streams, arity mixes, empty
// fragments) must be indistinguishable between the in-process engine
// and the TCP transport.

func TestGYMBackendDiff(t *testing.T) {
	cfg := testkit.Config{Gen: diffGen()}
	for _, q := range []hypergraph.Query{hypergraph.Path(3), hypergraph.SlideTree()} {
		testkit.RunBackendDiff(t, q, cfg, algo("gym"))
	}
}

func TestGYMOptimizedBackendDiff(t *testing.T) {
	testkit.RunBackendDiff(t, hypergraph.SlideTree(), testkit.Config{Gen: diffGen()}, algo("gym-opt"))
}
