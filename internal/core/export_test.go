package core

import (
	"slices"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
)

// spyKnown swaps the skewjoin and skewhc descriptors in the registry for
// ones that record the heavy hitters each Run is handed and then run the
// real descriptor, until the test ends. A Run handed nil counts them for
// itself; one handed a count routes by it and counts none.
func spyKnown(t *testing.T) *[]*stats.Known {
	t.Helper()
	handed := new([]*stats.Known)
	saved := registry
	registry = slices.Clone(registry)
	for i := range registry {
		d := &registry[i]
		if d.Alg != string(AlgSkewJoin) && d.Alg != string(AlgSkewHC) {
			continue
		}
		run := d.Run
		d.Run = func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, known *stats.Known) error {
			*handed = append(*handed, known)
			return run(c, q, rels, outName, seed, known)
		}
	}
	t.Cleanup(func() { registry = saved })
	return handed
}
