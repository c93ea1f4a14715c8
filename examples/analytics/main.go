// Analytics demo: the grouped-aggregate join of slide 52 —
//
//	SELECT cKey, month, SUM(price)
//	FROM Orders ⋈ Customers GROUP BY cKey, month
//
// executed as a star-schema query (orders ⋈ customers ⋈ regions) with
// distributed Yannakakis (GYM), followed by a distributed group-by
// round. The acyclic query's load stays O((IN+OUT)/p) end to end.
package main

import (
	"fmt"
	"math/rand"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/yannakakis"
)

func main() {
	const (
		nOrders    = 40000
		nCustomers = 3000
		nRegions   = 50
		servers    = 16
	)
	rng := rand.New(rand.NewSource(11))
	// orders(oid, cKey, month, price): the unique order id keeps the
	// join's set semantics aligned with SQL bag semantics (duplicate
	// orders must each contribute to the SUM).
	orders := relation.New("orders", "oid", "cKey", "month", "price")
	for i := 0; i < nOrders; i++ {
		orders.Append(
			relation.Value(i),
			relation.Value(rng.Intn(nCustomers)),
			relation.Value(rng.Intn(12)),
			relation.Value(5+rng.Intn(500)))
	}
	// customers(cKey, region); regions(region, active) with some regions
	// filtered out, so the semijoin phases genuinely prune.
	customers := relation.New("customers", "cKey", "region")
	for i := 0; i < nCustomers; i++ {
		customers.Append(relation.Value(i), relation.Value(rng.Intn(nRegions)))
	}
	regions := relation.New("regions", "region", "active")
	for i := 0; i < nRegions; i++ {
		if i%3 != 0 { // a third of the regions are inactive
			regions.Append(relation.Value(i), 1)
		}
	}

	// The acyclic join: orders(oid, cKey, month, price) ⋈
	// customers(cKey, region) ⋈ regions(region, active).
	q := hypergraph.NewQuery("sales",
		hypergraph.Atom{Name: "orders", Vars: []string{"oid", "cKey", "month", "price"}},
		hypergraph.Atom{Name: "customers", Vars: []string{"cKey", "region"}},
		hypergraph.Atom{Name: "regions", Vars: []string{"region", "active"}},
	)
	ok, jt := hypergraph.IsAcyclic(q)
	if !ok {
		panic("star schema must be acyclic")
	}
	rels := map[string]*relation.Relation{
		"orders": orders, "customers": customers, "regions": regions,
	}
	const seed = 42
	c := mpc.NewCluster(servers, 1)
	res := yannakakis.GYMOptimized(c, jt, rels, "joined", seed)

	// Distributed GROUP BY (cKey, month) SUM(price) over the join output
	// where it lies: one round with local pre-aggregation (combiners).
	if _, err := aggregate.Run(c, aggregate.Spec{
		Rel:     "joined",
		GroupBy: []string{"cKey", "month"},
		Fn:      relation.Sum,
		AggAttr: "price",
		OutAttr: "total",
		OutRel:  "result",
		Seed:    seed,
	}); err != nil {
		panic(err)
	}
	result := c.Gather("result")
	m := c.Metrics()

	fmt.Println("=== star-schema analytics with GYM (slides 52, 64–94) ===")
	fmt.Printf("inputs       %d orders, %d customers, %d active regions, p = %d\n",
		nOrders, nCustomers, regions.Len(), servers)
	fmt.Printf("join phase   GYM optimized: %d rounds\n", res.Rounds)
	fmt.Printf("group-by     1 round with local pre-aggregation (combiners)\n")
	fmt.Printf("result       %d (cKey, month) groups\n", result.Len())
	fmt.Printf("cost         L = %d, r = %d, C = %d\n", m.MaxLoad(), m.Rounds(), m.TotalComm())

	// Verify against a single-machine evaluation.
	joined := relation.GenericJoin("ref", []string{"oid", "cKey", "month", "price", "region", "active"},
		orders, customers, regions)
	want := relation.GroupBy("want", joined, []string{"cKey", "month"}, relation.Sum, "price", "total")
	if result.EqualAsSets(want) {
		fmt.Println("verified     distributed aggregate == single-machine reference")
	} else {
		panic("verification failed")
	}
}
