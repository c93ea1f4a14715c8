// Package plannertest is the competitive test harness for the query
// planner (internal/plan). It lives in its own package, rather than in
// testkit proper, because it must import internal/core to execute
// planned queries — and core imports every algorithm package, whose
// own tests import testkit.
package plannertest

import (
	"testing"

	"mpcquery/internal/core"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/plan"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// PlannerSkews is the planner-harness distribution axis: one benign and
// one adversarial input per sweep point.
var PlannerSkews = []testkit.Skew{testkit.SkewUniform, testkit.SkewZipf}

// RunPlannerDiff is the planner's competitive harness. For every
// (p, seed, skew) sweep point it:
//
//  1. plans q over a generated instance and executes the chosen plan,
//  2. checks the output against the sequential oracle,
//  3. executes every other applicable candidate with its algorithm
//     forced, and
//  4. asserts the chosen plan's *measured* load is at most
//     2 × the best measured load over all candidates (+ LoadSlack) —
//     the planner may mispredict, but never by enough to pick a plan
//     twice as bad as the best available.
//
// Skews defaults to PlannerSkews (uniform + Zipf) unless cfg overrides.
func RunPlannerDiff(t *testing.T, q hypergraph.Query, cfg testkit.Config) {
	t.Helper()
	if len(cfg.Skews) == 0 {
		cfg.Skews = PlannerSkews
	}
	cfg = cfg.WithDefaults()
	testkit.Sweep(t, cfg, func(t *testing.T, p int, seed int64, skew testkit.Skew) {
		rels := testkit.GenInstance(q, skew, cfg.Gen, seed)
		pl, err := plan.For(q, rels, p, plan.Options{})
		if err != nil {
			t.Fatalf("plan.For: %v", err)
		}
		eng := core.NewEngine(p, seed)
		res, err := pl.Execute(eng, rels)
		if err != nil {
			t.Fatalf("plan.Execute (%s): %v", pl.Best().Alg, err)
		}
		got := res.Exec.Output
		want := testkit.OracleJoin(q, rels)
		if !testkit.BagEqual(got, want) {
			t.Fatalf("planned %s: wrong output\n%s", pl.Best().Alg, testkit.DiffSample(got, want))
		}
		best := bestMeasuredLoad(t, eng, q, rels, pl)
		// LoadSlack plus one average per-server share absorbs
		// hash-placement variance at these instance sizes (the same
		// variance the per-algorithm diff tests cover with LoadFactor).
		slack := cfg.LoadSlack + testkit.InputSize(q, rels)/int64(p)
		if limit := 2*best + slack; res.MeasuredL > limit {
			t.Errorf("planner chose %s with measured L=%d, best candidate measured L=%d (limit %d)\n%s",
				pl.Best().Alg, res.MeasuredL, best, limit, pl.Explain())
		}
	})
}

// bestMeasuredLoad force-runs every applicable executable candidate and
// returns the minimum metered load — the competitive baseline.
func bestMeasuredLoad(t *testing.T, eng *core.Engine, q hypergraph.Query, rels map[string]*relation.Relation, pl *plan.Plan) int64 {
	t.Helper()
	best := int64(-1)
	for _, c := range pl.Candidates {
		if !c.Applicable {
			continue
		}
		exec, err := eng.Execute(core.Request{Query: q, Relations: rels, Algorithm: core.Algorithm(c.Alg)})
		if err != nil {
			t.Fatalf("candidate %s failed to execute after Applies accepted it: %v", c.Alg, err)
		}
		if best < 0 || exec.MaxLoad < best {
			best = exec.MaxLoad
		}
	}
	if best < 0 {
		t.Fatal("no executable candidate")
	}
	return best
}
