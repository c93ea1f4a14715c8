package hypercube_test

import (
	"fmt"

	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// ExampleRun computes the triangle query in ONE communication round on
// a 27-server cluster — the tutorial's headline result (slide 34).
func ExampleRun() {
	edges := [][]relation.Value{{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 5}}
	rels := map[string]*relation.Relation{
		"R": relation.FromRows("R", []string{"x", "y"}, edges),
		"S": relation.FromRows("S", []string{"y", "z"}, edges),
		"T": relation.FromRows("T", []string{"z", "x"}, edges),
	}
	c := mpc.NewCluster(27, 1)
	res, err := hypercube.Run(c, hypergraph.Triangle(), rels, "out", 42, hypercube.LocalGeneric)
	if err != nil {
		panic(err)
	}
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("triangles:", c.Gather("out").Len())
	fmt.Println("shares:", res.Plan.Shares)
	// Output:
	// rounds: 1
	// triangles: 3
	// shares: [3 3 3]
}

// ExamplePlanWithShares shows manual share control: a 2×2×2 grid on 8
// servers and where one R-tuple is replicated (along the free z
// dimension).
func ExamplePlanWithShares() {
	pl := hypercube.PlanWithShares(hypergraph.Triangle(), []int{2, 2, 2}, 7)
	rt := pl.Route(hypergraph.Triangle().Atom("R"))
	fmt.Println("copies:", len(rt.Offsets))
	// Output:
	// copies: 2
}
