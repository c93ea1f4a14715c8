package join2

import (
	"fmt"
	"math"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// Plannables declares the four two-way join strategies: what the
// planner (internal/plan) costs and what the engine (internal/core)
// runs. Applicability is the join2 contract — two binary atoms sharing
// exactly one variable; Run relabels the two inputs to their atoms'
// variables (cost.BindAtoms) and calls the strategy (broadcast
// replicates the smaller side); and the predictions are the tutorial's
// analytic loads instantiated with the collected statistics:
//
//   - hashjoin:  L = IN/p + dmax(y), the hash-partition mean plus the
//     heaviest join value, which a hash join cannot split (slide 24).
//   - broadcast: L = |small|; only the replicated copies travel, the
//     large side stays put (slide 32).
//   - skewjoin:  L = IN/p + √(OUT/p), the slide-30 skew-resilient
//     bound; r = 3 (degree exchange, heavy broadcast, hybrid shuffle).
//   - sortjoin:  same load bound plus the Θ(p) splitter exchange of
//     PSRS; r = 4 (slide 31).
func Plannables() []cost.Plannable {
	applies := func(q hypergraph.Query) error {
		if _, ok := q.TwoWayJoinVar(); !ok {
			return fmt.Errorf("requires a two-way binary join R(x,y) ⋈ S(y,z)")
		}
		return nil
	}
	run := func(join func(c *mpc.Cluster, r, s *relation.Relation, outName string, seed uint64) *Result) cost.RunFunc {
		return func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) error {
			bound := cost.BindAtoms(q, rels)
			join(c, bound[q.Atoms[0].Name], bound[q.Atoms[1].Name], outName, seed)
			return nil
		}
	}
	return []cost.Plannable{
		{
			Alg:     "hashjoin",
			Doc:     "one-round parallel hash join (slide 23)",
			Applies: applies,
			Run:     run(HashJoin),
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				y, _ := st.Query.TwoWayJoinVar()
				dmax := 0
				for _, a := range st.Query.Atoms {
					dmax += st.MaxDeg[a.Name][y]
				}
				return cost.Estimate{
					L:      float64(st.IN)/float64(st.P) + float64(dmax),
					R:      1,
					C:      float64(st.IN),
					Detail: fmt.Sprintf("dmax(%s)=%d", y, dmax),
				}, nil
			},
		},
		{
			Alg:     "broadcast",
			Doc:     "replicate the small side everywhere (slide 32)",
			Applies: applies,
			Run: run(func(c *mpc.Cluster, r, s *relation.Relation, outName string, _ uint64) *Result {
				if s.Len() < r.Len() {
					r, s = s, r
				}
				return BroadcastJoin(c, r, s, outName)
			}),
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				small := st.Sizes[st.Query.Atoms[0].Name]
				if s := st.Sizes[st.Query.Atoms[1].Name]; s < small {
					small = s
				}
				return cost.Estimate{
					L:      float64(small),
					R:      1,
					C:      float64(small) * float64(st.P),
					Detail: fmt.Sprintf("small side %d tuples", small),
				}, nil
			},
		},
		{
			Alg:     "skewjoin",
			Doc:     "skew-resilient join: light hash + per-heavy-hitter grids (slides 29-30)",
			Applies: applies,
			Run:     run(SkewJoin),
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				p := float64(st.P)
				return cost.Estimate{
					L: float64(st.IN)/p + math.Sqrt(st.OutEst/p),
					R: 3,
					C: 2 * float64(st.IN),
				}, nil
			},
		},
		{
			Alg:     "sortjoin",
			Doc:     "parallel sort join: PSRS + boundary fixups (slide 31)",
			Applies: applies,
			Run:     run(SortJoin),
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				p := float64(st.P)
				return cost.Estimate{
					L: float64(st.IN)/p + math.Sqrt(st.OutEst/p) + p,
					R: 4,
					C: 2*float64(st.IN) + p*p,
				}, nil
			},
		},
	}
}
