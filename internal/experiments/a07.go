package experiments

import (
	"fmt"
	"strings"

	"mpcquery/internal/bigjoin"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

func init() {
	All = append(All, Experiment{"A07", "BiGJoin variable-order sensitivity", A07BigJoinOrder})
}

// A07BigJoinOrder measures how the variable elimination order changes
// BiGJoin's binding footprint and load — the distributed analogue of
// the classic worst-case-optimal-join ordering sensitivity. The query
// is the 4-cycle on a dense-ish random graph; different orders pick
// different seed/proposer structures and so ship different binding
// sets. (A power-law graph makes the spread more dramatic but its
// 4-cycle count explodes combinatorially, so the sweep uses a uniform
// graph.)
func A07BigJoinOrder() *Table {
	const p = 16
	q := hypergraph.Cycle(4)
	// Asymmetric sizes make the ordering matter: R1 and R3 are sparse,
	// R2 and R4 dense. Orders seeding at a sparse atom carry small
	// binding sets through the dense ones.
	sizes := map[string]int{"R1": 400, "R2": 4000, "R3": 400, "R4": 4000}
	rels := map[string]*relation.Relation{}
	for i, a := range q.Atoms {
		g := workload.RandomGraph("E", "a", "b", 250, sizes[a.Name], int64(7+i))
		rels[a.Name] = g.Rename(a.Name, a.Vars...)
	}
	t := &Table{
		ID: "A07", Title: "BiGJoin variable orders on an asymmetric 4-cycle",
		SlideRef: "slide 97 + WCOJ ordering folklore",
		Header:   []string{"variable order", "rounds", "max bindings", "max L", "total C"},
	}
	var refLen = -1
	for _, order := range [][]string{
		{"A1", "A2", "A3", "A4"},
		{"A1", "A3", "A2", "A4"},
		{"A2", "A4", "A1", "A3"},
	} {
		pl, err := bigjoin.NewPlan(q, order)
		if err != nil {
			panic(err)
		}
		c := mpc.NewCluster(p, 1)
		res := bigjoin.Run(c, pl, rels, "out", 42)
		outLen := c.TotalLen("out")
		if refLen < 0 {
			refLen = outLen
		} else if outLen != refLen {
			panic(fmt.Sprintf("A07: order %v changed the result (%d vs %d)", order, outLen, refLen))
		}
		t.AddRow(strings.Join(order, ","), fmtInt(int64(res.Rounds)),
			fmtInt(int64(res.MaxBindings)), fmtInt(c.Metrics().MaxLoad()),
			fmtInt(c.Metrics().TotalComm()))
	}
	t.Note("p = %d, |R1|=|R3|=400, |R2|=|R4|=4000, OUT = %d; the result is order-independent, the cost is not", p, refLen)
	return t
}
