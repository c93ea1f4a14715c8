package aggregate

import (
	"fmt"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
)

// EstimateGroups predicts the number of output groups of a group-by
// over the join result: the product over group-by variables of the
// smallest distinct count observed for that variable in any atom,
// capped at the estimated join output (grouping can only shrink it).
// The planner uses it to cost the aggregation round it appends to a
// join plan when plan.Options.Aggregate is set.
func EstimateGroups(st *cost.QueryStats, groupBy []string) float64 {
	groups := 1.0
	for _, v := range groupBy {
		min := 0
		for _, a := range st.Query.Atoms {
			if !a.HasVar(v) {
				continue
			}
			d := st.Distinct[a.Name][v]
			if d < 1 {
				d = 1
			}
			if min == 0 || d < min {
				min = d
			}
		}
		if min > 0 {
			groups *= float64(min)
		}
	}
	if st.OutEst > 0 && groups > st.OutEst {
		groups = st.OutEst
	}
	return groups
}

// Plannables describes the aggregation operator to the planner. It is
// not a standalone join strategy — it rides on top of whatever plan
// produced the join result — so its descriptor never applies on its
// own; it exists so EXPLAIN can list the operator and its cost shape.
func Plannables() []cost.Plannable {
	return []cost.Plannable{
		{
			Alg: "aggregate",
			Doc: "combiner-style group-by pushdown, one extra round (slides 87-90)",
			Applies: func(hypergraph.Query) error {
				return fmt.Errorf("post-processing operator: attaches to a join plan via plan.Options.Aggregate, not a standalone strategy")
			},
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				p := float64(st.P)
				return cost.Estimate{L: st.OutEst / p, R: 1, C: st.OutEst}, nil
			},
		},
	}
}
