package bigjoin

import (
	"fmt"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
)

// Plannables declares BiGJoin: what the planner (internal/plan) costs
// and what the engine (internal/core) runs, under the default variable
// order. The prediction replays the compiled plan symbolically: the
// binding set after the seed and after each extension step is the
// heavy-aware chain estimate of the sub-query over the atoms applied so
// far, and the load charges the largest such binding set (the dataflow
// ships the whole frontier each extend round).
func Plannables() []cost.Plannable {
	return []cost.Plannable{
		{
			Alg: "bigjoin",
			Doc: "BiGJoin: one variable per round, worst-case optimal per step (slides 78-84)",
			Applies: func(q hypergraph.Query) error {
				_, err := NewPlan(q, nil)
				return err
			},
			Run: func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, _ *stats.Known) error {
				pl, err := NewPlan(q, nil)
				if err != nil {
					return err
				}
				Run(c, pl, rels, outName, seed)
				return nil
			},
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				pl, err := NewPlan(st.Query, nil)
				if err != nil {
					return cost.Estimate{}, err
				}
				applied := []string{st.Query.Atoms[pl.SeedAtom].Name}
				for _, i := range pl.SeedVerifiers {
					applied = append(applied, st.Query.Atoms[i].Name)
				}
				frontier := func() float64 {
					sizes := cost.ChainSizes(st, applied)
					return sizes[len(sizes)-1]
				}
				// The binding set after the final step is the output and
				// stays distributed; every earlier frontier is reshipped
				// by the next extend round, and a step with verifiers
				// ships its pre-verification frontier to them.
				maxB := frontier()
				sumB := maxB
				track := func() {
					b := frontier()
					if b > maxB {
						maxB = b
					}
					sumB += b
				}
				for si, s := range pl.Steps {
					applied = append(applied, st.Query.Atoms[s.proposer].Name)
					last := si == len(pl.Steps)-1
					if len(s.verifiers) > 0 {
						track() // pre-verify frontier ships to the verifiers
						for _, i := range s.verifiers {
							applied = append(applied, st.Query.Atoms[i].Name)
						}
					}
					if !last {
						track()
					}
				}
				var maxAtom int64
				for _, n := range st.Sizes {
					if n > maxAtom {
						maxAtom = n
					}
				}
				p := float64(st.P)
				return cost.Estimate{
					L:      (float64(maxAtom) + maxB) / p,
					R:      pl.Rounds(),
					C:      float64(st.IN) + sumB,
					Detail: fmt.Sprintf("max shipped bindings ≈ %.4g over %d steps", maxB, len(pl.Steps)),
				}, nil
			},
		},
	}
}
