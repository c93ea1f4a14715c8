package core

import (
	"fmt"
	"strings"
	"testing"

	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/workload"
)

// TestPlannerCoversAdaptiveSwitch is the sweep that retired the
// engine's adaptive mode: on the mispredicted-skew instances the
// adaptive driver (hypercube.RunAdaptive) was built for, wherever it
// switches to SkewHC mid-query, auto planning picks skewhc up front and
// reaches the switched run's L in one round. On path4 the heavy endpoint A0
// has share 1, so the driver never switches and the planner keeps
// plain HyperCube.
func TestPlannerCoversAdaptiveSwitch(t *testing.T) {
	const p = 16
	switches := map[string]int{}
	all := []float64{0.1, 0.3, 0.5, 0.8}
	for _, tc := range []struct {
		q     hypergraph.Query
		fracs []float64
	}{
		{hypergraph.Triangle(), all},
		// The star's answer is the cube of its heavy degree, every
		// HeavyFrac-th of the 480 rows: 48, 96 and 160 rows here.
		{hypergraph.Star(3), []float64{0.1, 0.2, 0.3}},
		{hypergraph.Path(4), all},
	} {
		q := tc.q
		for _, frac := range tc.fracs {
			for seed := int64(1); seed <= 3; seed++ {
				rels := testkit.GenMispredicted(q, testkit.GenConfig{Tuples: 480, HeavyFrac: frac}, seed)
				e := NewEngine(p, seed)
				c := e.newCluster()
				res, err := hypercube.RunAdaptive(c, q, rels, "out", uint64(e.Seed))
				if err != nil {
					t.Fatal(err)
				}
				exec, err := e.Execute(Request{Query: q, Relations: rels})
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%s HeavyFrac %.1f seed %d", q.Name, frac, seed)
				if got, want := exec.Output.Len(), c.Gather("out").Len(); got != want {
					t.Errorf("%s: auto answers %d rows, the driver %d", at, got, want)
				}
				if q.Name == "path4" && exec.Algorithm != AlgHyperCube {
					t.Errorf("%s: auto plans %s (%s), want %s", at, exec.Algorithm, exec.Reason, AlgHyperCube)
				}
				if !res.Switched {
					continue
				}
				switches[q.Name]++
				if exec.Algorithm != AlgSkewHC || exec.Rounds != 1 || exec.MaxLoad != c.Metrics().MaxLoad() {
					t.Errorf("%s: the driver switched at L %d; auto plans %s (%s) at L %d, r %d, want %s at L %d, r 1",
						at, c.Metrics().MaxLoad(), exec.Algorithm, exec.Reason, exec.MaxLoad, exec.Rounds, AlgSkewHC, c.Metrics().MaxLoad())
				}
			}
		}
	}
	t.Logf("driver switched on %v", switches)
	if switches["triangle"] == 0 || switches["star3"] == 0 || switches["path4"] != 0 {
		t.Errorf("driver switched on %v instances, want some triangle and star3 and no path4", switches)
	}
}

// TestEngineCapacitiesRunHet checks that a capacity profile on the
// engine routes HyperCube plans through the heterogeneity-aware
// executor and that the answer is unchanged.
func TestEngineCapacitiesRunHet(t *testing.T) {
	q := hypergraph.Triangle()
	rels := testkit.GenInstance(q, testkit.SkewUniform, testkit.GenConfig{Tuples: 400}, 3)
	e := NewEngine(4, 3)
	e.Capacities = []float64{4, 2, 1, 1}
	exec, err := e.Execute(Request{Query: q, Relations: rels, Algorithm: AlgHyperCube})
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(q, rels)
	if !testkit.BagEqual(exec.Output, want) {
		t.Errorf("het output differs from reference: %s", testkit.DiffSample(exec.Output, want))
	}
	if exec.Metrics.NormalizedMakespan(e.Capacities) <= 0 {
		t.Error("normalized makespan not metered")
	}
}

// TestUniformCapacitiesAreNoProfile pins that an all-equal capacity
// profile is no profile: HyperCube runs its plain grid, with every
// round's name and receive vector, and so (L, r, C), identical to an
// engine without one, and the reason claims no capacity-aware shares.
func TestUniformCapacitiesAreNoProfile(t *testing.T) {
	q := hypergraph.Triangle()
	rels := testkit.GenInstance(q, testkit.SkewUniform, testkit.GenConfig{Tuples: 400}, 3)
	run := func(caps []float64) *Execution {
		e := NewEngine(8, 3)
		e.Capacities = caps
		exec, err := e.Execute(Request{Query: q, Relations: rels, Algorithm: AlgHyperCube})
		if err != nil {
			t.Fatal(err)
		}
		return exec
	}
	none, uniform := run(nil), run([]float64{2, 2, 2, 2, 2, 2, 2, 2})
	if got, want := fmt.Sprint(uniform.Metrics.RoundStats()), fmt.Sprint(none.Metrics.RoundStats()); got != want {
		t.Errorf("uniform profile rounds %s, no profile %s", got, want)
	}
	if strings.Contains(uniform.Reason, "capacity-aware") {
		t.Errorf("uniform profile reason %q claims capacity-aware shares", uniform.Reason)
	}
}

// TestEngineCapacitiesValidation pins the error paths: a bad profile is
// an error — never the SetCapacities panic — from every entry point.
// (ExecuteRecursive used to skip the check, so one recursive query
// crashed a service configured with a short profile.)
func TestEngineCapacitiesValidation(t *testing.T) {
	q := hypergraph.Triangle()
	req := Request{Query: q, Relations: testkit.GenInstance(q, testkit.SkewNone, testkit.GenConfig{Tuples: 40}, 1)}
	spec := AggregateSpec{GroupBy: []string{"x"}, Fn: relation.Count, OutAttr: "n"}
	rec := RecursiveRequest{Kind: RecTransitiveClosure, Edges: workload.RandomGraph("E", "src", "dst", 10, 20, 1)}
	for name, caps := range map[string][]float64{
		"wrong length":       {1, 2},
		"non-positive entry": {1, 1, 0, 1},
	} {
		e := NewEngine(4, 1)
		e.Capacities = caps
		if _, err := e.Execute(req); err == nil {
			t.Errorf("%s: Execute accepted it", name)
		}
		if _, err := e.ExecuteAggregate(req, spec); err == nil {
			t.Errorf("%s: ExecuteAggregate accepted it", name)
		}
		if _, err := e.ExecuteRecursive(rec); err == nil {
			t.Errorf("%s: ExecuteRecursive accepted it", name)
		}
	}
}
