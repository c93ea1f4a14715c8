package core

import (
	"slices"
	"strings"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/workload"
)

// TestAdaptiveSwitches drives the skew-reactive path through the
// public engine API: a mispredicted-skew triangle must switch, report
// the decision on Execution.Adaptive, and still produce the reference
// answer. Execution.Algorithm stays the planned hypercube — forcing it
// again (as the service's plan cache does) probes again. After its one
// probe round the switched run is bit-identical to a run that chose
// SkewHC up front: same output rows in the same order, same per-round
// receive vectors.
func TestAdaptiveSwitches(t *testing.T) {
	q := hypergraph.Triangle()
	rels := testkit.GenMispredicted(q, testkit.GenConfig{Tuples: 480, HeavyFrac: 0.5}, 1)
	e := NewEngine(16, 1)
	e.Adaptive = true
	exec, err := e.Execute(Request{Query: q, Relations: rels, Algorithm: AlgHyperCube})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Adaptive == nil || !exec.Adaptive.Switched {
		t.Fatalf("did not switch: %s", exec.Reason)
	}
	if exec.Algorithm != AlgHyperCube {
		t.Errorf("algorithm = %s, want the planned %s", exec.Algorithm, AlgHyperCube)
	}
	if exec.Adaptive.Signal.MaxRecv == 0 {
		t.Error("switched run reports a zero probe signal")
	}
	want := Reference(q, rels)
	if !testkit.BagEqual(exec.Output, want) {
		t.Errorf("adaptive output differs from reference: %s", testkit.DiffSample(exec.Output, want))
	}

	static, err := NewEngine(16, 1).Execute(Request{Query: q, Relations: rels, Algorithm: AlgSkewHC})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Output.Len() != static.Output.Len() {
		t.Fatalf("switched run has %d output rows, SkewHC up front %d", exec.Output.Len(), static.Output.Len())
	}
	for i := 0; i < static.Output.Len(); i++ {
		if !slices.Equal(exec.Output.Row(i), static.Output.Row(i)) {
			t.Fatalf("output row %d: switched %v, SkewHC up front %v", i, exec.Output.Row(i), static.Output.Row(i))
		}
	}
	tail, up := exec.Metrics.RoundStats()[1:], static.Metrics.RoundStats()
	if len(tail) != len(up) {
		t.Fatalf("switched run has %d rounds after the probe, SkewHC up front %d", len(tail), len(up))
	}
	for i := range up {
		if tail[i].Name != up[i].Name {
			t.Errorf("round %d: switched %q, SkewHC up front %q", i, tail[i].Name, up[i].Name)
		}
		for s := range up[i].Recv {
			if tail[i].Recv[s] != up[i].Recv[s] {
				t.Errorf("round %q server %d: switched received %d, SkewHC up front %d", up[i].Name, s, tail[i].Recv[s], up[i].Recv[s])
			}
		}
	}
}

// TestAdaptiveNoSwitch pins the balanced case end to end.
func TestAdaptiveNoSwitch(t *testing.T) {
	q := hypergraph.Triangle()
	rels := testkit.GenInstance(q, testkit.SkewNone, testkit.GenConfig{Tuples: 120}, 1)
	e := NewEngine(4, 1)
	e.Adaptive = true
	exec, err := e.Execute(Request{Query: q, Relations: rels, Algorithm: AlgHyperCube})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Adaptive == nil || exec.Adaptive.Switched {
		t.Fatalf("switched on a skew-free instance: %s", exec.Reason)
	}
	if exec.Algorithm != AlgHyperCube {
		t.Errorf("algorithm = %s, want %s", exec.Algorithm, AlgHyperCube)
	}
	want := Reference(q, rels)
	if !testkit.BagEqual(exec.Output, want) {
		t.Errorf("output differs from reference: %s", testkit.DiffSample(exec.Output, want))
	}
}

// TestEngineAdaptiveFlagReroutesHyperCube checks that Engine.Adaptive
// reroutes the ordinary Execute path when the request forces (or the
// planner picks) HyperCube, and leaves every other plan alone.
func TestEngineAdaptiveFlagReroutesHyperCube(t *testing.T) {
	q := hypergraph.Triangle()
	rels := testkit.GenMispredicted(q, testkit.GenConfig{Tuples: 480, HeavyFrac: 0.5}, 2)
	e := NewEngine(16, 2)
	e.Adaptive = true
	exec, err := e.Execute(Request{Query: q, Relations: rels, Algorithm: AlgHyperCube})
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(q, rels)
	if !testkit.BagEqual(exec.Output, want) {
		t.Errorf("output differs from reference: %s", testkit.DiffSample(exec.Output, want))
	}
	// The switch decision must surface in the plan explanation.
	if got := exec.Reason; !strings.Contains(got, "adaptive:") {
		t.Errorf("reason %q does not mention the adaptive decision", got)
	}
	other, err := e.Execute(Request{Query: q, Relations: rels, Algorithm: AlgBigJoin})
	if err != nil {
		t.Fatal(err)
	}
	if other.Adaptive != nil {
		t.Errorf("non-HyperCube plan %s carries an adaptive record", other.Algorithm)
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
