package experiments

import (
	"fmt"

	"mpcquery/internal/core"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/plan"
	"mpcquery/internal/testkit"
)

// E24PlannerAccuracy runs the cost-based planner (internal/plan) over
// the tutorial's standard query shapes on uniform and Zipf-skewed
// inputs, executes the chosen plan, and reports predicted vs measured
// maximum load. The interesting column is the ratio: near 1 on
// uniform inputs, where the independence assumptions behind the
// estimates hold, and noisier on Zipf inputs, where the heavy-aware
// chain estimator deliberately charges risky multi-round plans for
// worst-case heavy-hitter alignment — mispredicting the winner's
// load is acceptable; picking a plan that blows up is not (that is
// what the plannertest 2× competitive gate enforces).
func E24PlannerAccuracy() (*Table, error) {
	const p = 8
	gen := testkit.GenConfig{Tuples: 1000, Domain: 350}
	queries := []hypergraph.Query{
		hypergraph.TwoWayJoin(),
		hypergraph.Triangle(),
		hypergraph.Path(4),
		hypergraph.Star(3),
	}

	t := &Table{
		ID: "E24", Title: "Planner accuracy: predicted vs measured max load",
		SlideRef: "cost model of slides 20–26 applied to plan selection",
		Header:   []string{"query", "skew", "chosen", "predicted L", "measured L", "pred/meas"},
	}
	for _, q := range queries {
		for _, skew := range []testkit.Skew{testkit.SkewUniform, testkit.SkewZipf} {
			rels := testkit.GenInstance(q, skew, gen, 1)
			pl, err := plan.For(q, rels, p, plan.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", q.Name, skew, err)
			}
			res, err := pl.Execute(core.NewEngine(p, 1), rels)
			if err != nil {
				return nil, fmt.Errorf("%s/%s execute: %w", q.Name, skew, err)
			}
			t.AddRow(q.Name, skew.String(), string(pl.Best().Alg),
				fmtInt(int64(res.PredictedL)), fmtInt(res.MeasuredL),
				fmt.Sprintf("%.2f", res.Ratio))
		}
	}
	t.Note("n = %d tuples/relation, p = %d, seed 1; plans chosen by min predicted L", gen.Tuples, p)
	t.Note("prediction errors are tolerated; the plannertest harness separately enforces the chosen")
	t.Note("plan's measured load stays within 2× of the best measured candidate")
	return t, nil
}
