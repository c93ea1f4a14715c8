package matmul

import (
	"fmt"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
)

// Plannables describes dense matrix multiplication to the planner.
// Matmul is the slide-91+ case study of a join whose output is dense
// (every R(i,k) pairs with every S(k,j) block); it runs on matrices,
// not relations, so the descriptor never applies to a conjunctive
// query — it appears in verbose EXPLAIN output with that explanation.
func Plannables() []cost.Plannable {
	return []cost.Plannable{
		{
			Alg: "matmul",
			Doc: "rectangular-block dense matrix multiply in one shuffle (slides 91-99)",
			Applies: func(hypergraph.Query) error {
				return fmt.Errorf("dense-matrix primitive: operates on matrices, not relations")
			},
			Predict: func(st *cost.QueryStats) (cost.Estimate, error) {
				p := float64(st.P)
				return cost.Estimate{L: float64(st.IN) / p, R: 1, C: float64(st.IN)}, nil
			},
		},
	}
}
