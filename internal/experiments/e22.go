package experiments

import (
	"errors"
	"math"

	"mpcquery/internal/bigjoin"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

// E22BigJoin compares the slide-97 practical family — variable-at-a-
// time multi-round joins à la BiGJoin — against the one-round HyperCube
// on the triangle and 4-cycle queries: BiGJoin trades rounds for
// shipping partial bindings instead of replicated inputs, so its load
// tracks the binding-set sizes while HyperCube's tracks IN/p^{1/τ*}.
func E22BigJoin() (*Table, error) {
	const p = 16
	t := &Table{
		ID: "E22", Title: "BiGJoin vs HyperCube",
		SlideRef: "slide 97 (Ammar et al., VLDB '18)",
		Header: []string{"query", "algorithm", "rounds", "max L", "total C",
			"max bindings", "OUT"},
	}
	run := func(q hypergraph.Query, rels map[string]*relation.Relation) error {
		// Reference output size.
		inputs := make([]*relation.Relation, len(q.Atoms))
		for i, a := range q.Atoms {
			inputs[i] = rels[a.Name].Rename(a.Name, a.Vars...)
		}
		outSize := relation.GenericJoin("w", q.Vars(), inputs...).Len()

		pl, err := bigjoin.NewPlan(q, nil)
		if err != nil {
			return err
		}
		cb := mpc.NewCluster(p, 1)
		resB := bigjoin.Run(cb, pl, rels, "out", 42)
		t.AddRow(q.Name, "BiGJoin", fmtInt(int64(resB.Rounds)),
			fmtInt(cb.Metrics().MaxLoad()), fmtInt(cb.Metrics().TotalComm()),
			fmtInt(int64(resB.MaxBindings)), fmtInt(int64(outSize)))

		ch := mpc.NewCluster(p, 1)
		resH, err := hypercube.Run(ch, q, rels, "out", 42, hypercube.LocalGeneric)
		if err != nil {
			return err
		}
		t.AddRow(q.Name, "HyperCube", fmtInt(int64(resH.Rounds)),
			fmtInt(ch.Metrics().MaxLoad()), fmtInt(ch.Metrics().TotalComm()),
			"-", fmtInt(int64(outSize)))
		if got := cb.Gather("out"); got.Len() != outSize {
			return errors.New("bigjoin output size wrong")
		}
		return nil
	}

	// Sparse triangle: few bindings survive, BiGJoin ships little.
	r, s, u := workload.TriangleInput(4000, 20000, 3)
	if err := run(hypergraph.Triangle(), map[string]*relation.Relation{"R": r, "S": s, "T": u}); err != nil {
		return nil, err
	}

	// Denser 4-cycle: the intermediate open-wedge bindings (IN·d tuples)
	// dominate BiGJoin while HyperCube stays at IN/√p replication.
	g := workload.RandomGraph("E", "a", "b", 250, 4000, 5)
	q4 := hypergraph.Cycle(4)
	rels4 := map[string]*relation.Relation{}
	for _, a := range q4.Atoms {
		rels4[a.Name] = g.Rename(a.Name, a.Vars...)
	}
	if err := run(q4, rels4); err != nil {
		return nil, err
	}
	t.Note("p = %d; HyperCube load for the 4-cycle is ≈ 4·N/√p = %.0f — BiGJoin instead pays for the open-wedge bindings", p, 4*4000/math.Sqrt(p))
	return t, nil
}
