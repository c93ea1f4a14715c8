package bigjoin

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Cross-backend differential tests: BiGJoin's variable-elimination
// rounds (prefix extension streams plus verifier exchanges) must be
// indistinguishable between the in-process engine and the TCP
// transport.

func TestBiGJoinBackendDiff(t *testing.T) {
	for _, q := range []hypergraph.Query{hypergraph.Triangle(), hypergraph.Star(3)} {
		testkit.RunBackendDiff(t, q, testkit.Config{}, algo("bigjoin"))
	}
}
