package sortmpc

import (
	"fmt"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
)

// Plannables describes parallel sorting to the planner. Sorting is a
// primitive, not a conjunctive-query strategy — sortjoin uses it
// internally — so the descriptor never applies; it appears in verbose
// EXPLAIN output with that explanation.
func Plannables() []cost.Plannable {
	return []cost.Plannable{
		{
			Alg: "psrs",
			Doc: "parallel sample sort (PSRS), L = O(IN/p + p²) in 2 rounds (slide 31)",
			Applies: func(hypergraph.Query) error {
				return fmt.Errorf("sorting primitive: used inside sortjoin, not a query strategy")
			},
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				p := float64(st.P)
				return cost.Estimate{L: float64(st.IN)/p + p*p, R: 2, C: float64(st.IN) + p*p}, nil
			},
		},
	}
}
