package aggregate

import "mpcquery/internal/cost"

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
