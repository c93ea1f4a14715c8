package experiments

import (
	"fmt"
	"sort"

	"mpcquery/internal/cost"
	"mpcquery/internal/fractional"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

// E23ShareSweep enumerates EVERY integer share assignment (p1, p2, p3)
// with p1·p2·p3 ≤ p for the triangle query and measures the HyperCube
// load of each — an empirical certificate that (a) no assignment beats
// the slide-36 lower bound N/p^{2/3}, and (b) the LP-chosen shares land
// at (or tie) the true minimum.
func E23ShareSweep() (*Table, error) {
	const nv, ne, p = 2000, 12000, 64
	q := hypergraph.Triangle()
	r, s, u := workload.TriangleInput(nv, ne, 17)
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}

	type runResult struct {
		shares [3]int
		load   int64
	}
	var results []runResult
	for p1 := 1; p1 <= p; p1++ {
		for p2 := 1; p1*p2 <= p; p2++ {
			for p3 := 1; p1*p2*p3 <= p; p3++ {
				// Skip grids wasting more than half the cluster — they
				// can never win and dominate the sweep time.
				if p1*p2*p3 < p/2 {
					continue
				}
				// Route-only execution: the sweep needs shuffle loads,
				// not 500+ local joins.
				c := mpc.NewCluster(p, 1)
				pl := hypercube.PlanWithShares(q, []int{p1, p2, p3}, 42)
				for _, a := range q.Atoms {
					c.ScatterRoundRobin(rels[a.Name].Rename(a.Name))
				}
				sends := make([]mpc.Send, len(q.Atoms))
				for i, a := range q.Atoms {
					sends[i] = mpc.Send{From: a.Name, To: "x:" + a.Name, Policy: pl.Route(a)}
				}
				c.Shuffle("sweep", sends...)
				results = append(results, runResult{
					shares: [3]int{p1, p2, p3},
					load:   c.Metrics().MaxLoad(),
				})
			}
		}
	}
	sort.Slice(results, func(a, b int) bool { return results[a].load < results[b].load })

	sh, err := fractional.OptimalShares(q, map[string]int64{"R": ne, "S": ne, "T": ne}, p)
	if err != nil {
		return nil, err
	}
	lpShares := [3]int{sh.Integer[0], sh.Integer[1], sh.Integer[2]}
	var lpLoad int64 = -1
	lpRank := -1
	for i, rr := range results {
		if rr.shares == lpShares {
			lpLoad = rr.load
			lpRank = i + 1
			break
		}
	}
	lb := cost.TriangleOneRoundLB(float64(ne), p)
	if best := results[0]; best.load < int64(lb) {
		return nil, fmt.Errorf("grid %v beat the lower bound (L = %d < %.0f): metering bug", best.shares, best.load, lb)
	}

	t := &Table{
		ID: "E23", Title: "All share grids for the triangle, best first",
		SlideRef: "slides 36–40 (optimality of the LP shares)",
		Header:   []string{"rank", "shares (x,y,z)", "measured L", "vs LB N/p^{2/3}"},
	}
	for i := 0; i < 5 && i < len(results); i++ {
		rr := results[i]
		t.AddRow(fmtInt(int64(i+1)),
			fmt.Sprintf("%v", rr.shares), fmtInt(rr.load),
			fmtRatio(float64(rr.load), lb))
	}
	worst := results[len(results)-1]
	t.AddRow("worst", fmt.Sprintf("%v", worst.shares), fmtInt(worst.load),
		fmtRatio(float64(worst.load), lb))
	t.Note("swept %d grids with ≥ p/2 servers used; N = %d, p = %d, LB = %.0f", len(results), ne, p, lb)
	t.Note("LP chose %v (measured L = %d, rank %d of %d)", lpShares, lpLoad, lpRank, len(results))
	return t, nil
}
