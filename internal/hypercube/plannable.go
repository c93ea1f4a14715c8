package hypercube

import (
	"fmt"
	"math"
	"strings"

	"mpcquery/internal/cost"
	"mpcquery/internal/fractional"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
)

// Plannables declares the one-round HyperCube family: what the planner
// (internal/plan) costs and what the engine (internal/core) runs, with
// the generic-join local evaluator and SkewHC's default threshold:
//
//   - hypercube: LP-optimal integer shares; the prediction is the
//     per-atom expected load *including* the heavy-hitter term — a
//     value of degree d on variable x cannot be split across the x
//     dimension, so plain HyperCube degrades under skew exactly as
//     slide 46 warns. It runs RunHet: Run on a uniform cluster, one
//     box of the grid per server on a cluster carrying a capacity
//     profile (an all-equal one is none, mpc.SetCapacities).
//   - skewhc: the heavy/light residual-query variant whose load stays
//     IN/p^{1/ψ*} for any skew (slides 47-51). Run runs RunSkewHCKnown
//     on each variable's heavy hitters as it is handed them, the
//     planner's count, and counts them from the inputs itself only when
//     handed none: one round, the pattern shuffle, then the local
//     joins.
//   - hl-triangle: the multi-round Heavy-Light + Semijoins algorithm
//     for the triangle query only (slides 58-60): L = O(IN/p^{2/3})
//     under arbitrary skew in four rounds.
func Plannables() []cost.Plannable {
	return []cost.Plannable{
		{
			Alg:     "hypercube",
			Doc:     "one-round HyperCube/Shares join with LP-optimal shares (slides 34-45)",
			Applies: func(hypergraph.Query) error { return nil },
			Run: func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, _ *stats.Known) error {
				_, err := RunHet(c, q, rels, outName, seed, LocalGeneric)
				return err
			},
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				sh, err := fractional.OptimalShares(st.Query, st.Sizes, st.P)
				if err != nil {
					return cost.Estimate{}, err
				}
				parts := make([]string, len(sh.Vars))
				for i, v := range sh.Vars {
					parts[i] = fmt.Sprintf("%s=%d", v, sh.Integer[i])
				}
				return cost.Estimate{
					L:      cost.HyperCubeSkewedLoad(st, sh.Vars, sh.Integer),
					R:      1,
					C:      cost.HyperCubeReplication(st.Query, st.Sizes, sh.Vars, sh.Integer),
					Detail: "shares " + strings.Join(parts, " "),
				}, nil
			},
		},
		{
			Alg:     "skewhc",
			Doc:     "skew-resilient HyperCube over heavy/light residual queries (slides 47-51)",
			Applies: func(hypergraph.Query) error { return nil },
			Run: func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, known *stats.Known) error {
				if known == nil {
					threshold := Threshold(q, rels, c.P())
					vars := q.Vars()
					known = &stats.Known{Vars: make([][]relation.Value, len(vars))}
					for i, v := range vars {
						known.Vars[i] = HeavyValues(q, rels, v, threshold)
					}
				}
				_, err := RunSkewHCKnown(c, q, rels, outName, seed, known.Vars, LocalGeneric)
				return err
			},
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				load, err := cost.SkewedOneRoundLoad(st.Query, float64(st.IN), st.P)
				if err != nil {
					return cost.Estimate{}, err
				}
				sh, err := fractional.OptimalShares(st.Query, st.Sizes, st.P)
				if err != nil {
					return cost.Estimate{}, err
				}
				psi, err := cost.PsiStar(st.Query)
				if err != nil {
					return cost.Estimate{}, err
				}
				// SkewHC runs one residual sub-query per heavy/light
				// pattern — up to 2^k of them for k skewed variables —
				// and every pattern replicates its inputs on its own
				// sub-grid, so the shuffle volume multiplies with the
				// pattern count. Charge that, and floor the load by the
				// per-server share of the total shuffle: the theoretical
				// IN/p^{1/ψ*} only holds when the residual decomposition
				// stays cheap.
				patterns, skewed := 1.0, 0
				for _, n := range st.HeavyVars {
					if n > 0 && skewed < 6 {
						skewed++
						patterns *= 2
					}
				}
				c := cost.HyperCubeReplication(st.Query, st.Sizes, sh.Vars, sh.Integer)*patterns + float64(st.IN)
				if perServer := c / float64(st.P); perServer > load {
					load = perServer
				}
				detail := fmt.Sprintf("ψ*=%.3g", psi)
				if skewed > 0 {
					detail += fmt.Sprintf(", %d skewed vars → %.0f residual patterns", skewed, patterns)
				}
				return cost.Estimate{L: load, R: 1, C: c, Detail: detail}, nil
			},
		},
		{
			Alg: "hl-triangle",
			Doc: "multi-round Heavy-Light + Semijoins triangle algorithm (slides 58-60)",
			Applies: func(q hypergraph.Query) error {
				if q.Name != "triangle" || len(q.Atoms) != 3 {
					return fmt.Errorf("applies only to the triangle query")
				}
				return nil
			},
			Run: func(c *mpc.Cluster, _ hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, _ *stats.Known) error {
				_, err := HeavyLightTriangle(c, rels, outName, seed)
				return err
			},
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				p := float64(st.P)
				in := float64(st.IN)
				return cost.Estimate{
					L: in/math.Pow(p, 2.0/3.0) + in/p,
					R: 4,
					// Light part: one HyperCube round at p^{1/3} replication;
					// heavy part and the two statistics rounds ship O(IN).
					C: in*math.Cbrt(p) + 2*in,
				}, nil
			},
		},
	}
}
