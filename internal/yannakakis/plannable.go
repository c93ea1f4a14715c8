package yannakakis

import (
	"fmt"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// joinTreeConnected reports whether every non-root node of the join
// tree shares at least one variable with its parent. GYO accepts
// Cartesian products as "acyclic", but the GYM semijoin passes and the
// level-wise joins of the optimized variant only move tuples along
// shared attributes, so a disconnected tree would silently compute the
// wrong (empty-key) result.
func joinTreeConnected(jt *hypergraph.JoinTree) bool {
	for i, p := range jt.Parent {
		if p < 0 {
			continue
		}
		shared := false
		for _, v := range jt.Query.Atoms[i].Vars {
			if jt.Query.Atoms[p].HasVar(v) {
				shared = true
				break
			}
		}
		if !shared {
			return false
		}
	}
	return true
}

func acyclicConnected(q hypergraph.Query) (*hypergraph.JoinTree, error) {
	ok, jt := hypergraph.IsAcyclic(q)
	if !ok {
		return nil, fmt.Errorf("query is cyclic (GYO reduction leaves a core)")
	}
	if !joinTreeConnected(jt) {
		return nil, fmt.Errorf("join tree is disconnected (Cartesian product between atoms)")
	}
	return jt, nil
}

// Plannables declares the multi-round acyclic-query algorithms: what
// the planner (internal/plan) costs and what the engine (internal/core)
// runs — the GYM variants over the GYO join tree Applies accepted:
//
//   - gym: textbook GYM (slides 68-74) — semijoin sweep down, sweep
//     up, then join up the tree; 3(n−1) rounds, load (IN+OUT)/p.
//   - gym-opt: the log-depth variant (slide 75) — one shared semijoin
//     round per tree level and level-parallel joins, 3(d−1)+1 rounds
//     for tree depth d.
//   - binaryplan: the iterative left-deep hash-join baseline
//     (slides 57/63) — n−1 rounds, but the load carries whatever
//     intermediate the prefix joins produce, which is what the planner
//     charges it for.
func Plannables() []cost.Plannable {
	applies := func(q hypergraph.Query) error {
		_, err := acyclicConnected(q)
		return err
	}
	overTree := func(gym func(c *mpc.Cluster, jt *hypergraph.JoinTree, rels map[string]*relation.Relation, outName string, seed uint64) *Result) cost.RunFunc {
		return func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) error {
			jt, err := acyclicConnected(q)
			if err != nil {
				return err
			}
			gym(c, jt, rels, outName, seed)
			return nil
		}
	}
	return []cost.Plannable{
		{
			Alg:     "gym",
			Doc:     "GYM: Yannakakis over the join tree, 3(n-1) rounds (slides 68-74)",
			Applies: applies,
			Run:     overTree(GYM),
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				n := len(st.Query.Atoms)
				if n == 1 {
					return cost.Estimate{Detail: "single atom: output is the input, no communication"}, nil
				}
				// Semijoin passes ship only dangling-free projections
				// (≤ IN/p per round) and the n−1 join-up rounds spread the
				// output across themselves — each edge of the tree ships
				// its own slice of the final result, not all of it.
				p := float64(st.P)
				return cost.Estimate{
					L: (float64(st.IN) + st.OutEst/float64(n-1)) / p,
					R: 3 * (n - 1),
					C: float64(n-1)*float64(st.IN) + st.OutEst,
				}, nil
			},
		},
		{
			Alg:     "gym-opt",
			Doc:     "level-parallel GYM, 3(depth-1)+1 rounds (slide 75)",
			Applies: applies,
			Run:     overTree(GYMOptimized),
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				jt, err := acyclicConnected(st.Query)
				if err != nil {
					return cost.Estimate{}, err
				}
				d := len(jt.Levels())
				if d <= 1 {
					return cost.Estimate{Detail: "single atom: output is the input, no communication"}, nil
				}
				// Same spreading as gym, but the level-parallel join rounds
				// are fewer (d−1), so each carries a larger output slice.
				p := float64(st.P)
				return cost.Estimate{
					L:      (float64(st.IN) + st.OutEst/float64(d-1)) / p,
					R:      3*(d-1) + 1,
					C:      float64(d-1)*float64(st.IN) + st.OutEst,
					Detail: fmt.Sprintf("tree depth %d", d),
				}, nil
			},
		},
		{
			Alg: "binaryplan",
			Doc: "iterative left-deep binary hash joins, n-1 rounds (slides 57/63)",
			Applies: func(q hypergraph.Query) error {
				if len(q.Atoms) < 2 {
					return fmt.Errorf("needs at least two atoms")
				}
				// Each join must share a variable with the prefix joined
				// so far, or the hash co-partitioning has no key.
				bound := map[string]bool{}
				for _, v := range q.Atoms[0].Vars {
					bound[v] = true
				}
				for _, a := range q.Atoms[1:] {
					shared := false
					for _, v := range a.Vars {
						if bound[v] {
							shared = true
						}
					}
					if !shared {
						return fmt.Errorf("atom %s shares no variable with the prefix (Cartesian round)", a.Name)
					}
					for _, v := range a.Vars {
						bound[v] = true
					}
				}
				return nil
			},
			Run: func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) error {
				IterativeBinaryJoin(c, q, rels, outName, seed)
				return nil
			},
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				// Charge the largest estimated intermediate that actually
				// travels: prefix i (the heavy-aware chain estimate of the
				// first i atoms) is reshuffled for the join with atom i+1.
				// The final result stays distributed, so it is never
				// shipped.
				p := float64(st.P)
				n := len(st.Query.Atoms)
				names := make([]string, n)
				for i, a := range st.Query.Atoms {
					names[i] = a.Name
				}
				prefix := cost.ChainSizes(st, names)
				maxInter := 0.0
				sumInter := 0.0
				for _, b := range prefix[1 : n-1] {
					if b > maxInter {
						maxInter = b
					}
					sumInter += b
				}
				return cost.Estimate{
					L:      (float64(st.IN) + maxInter) / p,
					R:      n - 1,
					C:      float64(st.IN) + sumInter,
					Detail: fmt.Sprintf("max shipped intermediate ≈ %.4g", maxInter),
				}, nil
			},
		},
	}
}
