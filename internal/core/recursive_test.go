package core

import (
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/workload"
)

// TestExecuteRecursive checks the engine wrapper over every workload
// kind against the testkit oracles, including the iteration metering.
func TestExecuteRecursive(t *testing.T) {
	edges := workload.RandomGraph("E", "src", "dst", 20, 40, 3)
	e := NewEngine(4, 7)

	for _, tc := range []struct {
		kind    RecursiveKind
		sources []relation.Value
		want    *relation.Relation
	}{
		{RecTransitiveClosure, nil, testkit.OracleFixpoint("out", edges)},
		{RecReachable, []relation.Value{edges.Row(0)[0]}, testkit.OracleReachable("out", edges, []relation.Value{edges.Row(0)[0]})},
		{RecConnectedComponents, nil, testkit.OracleComponents("out", edges)},
	} {
		exec, err := e.ExecuteRecursive(RecursiveRequest{Kind: tc.kind, Edges: edges, Sources: tc.sources})
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		got := exec.Output.Clone()
		got.Sort()
		if !testkit.BagEqual(got, tc.want) {
			t.Errorf("%s differs from oracle: %s", tc.kind, testkit.DiffSample(got, tc.want))
		}
		if exec.Rounds != exec.Iterations {
			t.Errorf("%s: rounds = %d over %d iterations, want exactly 1 per iteration", tc.kind, exec.Rounds, exec.Iterations)
		}
	}

	if _, err := e.ExecuteRecursive(RecursiveRequest{Kind: RecReachable, Edges: edges}); err == nil {
		t.Error("reachability without sources should fail")
	}
	if _, err := e.ExecuteRecursive(RecursiveRequest{Kind: "nope", Edges: edges}); err == nil {
		t.Error("unknown kind should fail")
	}
}

// TestExecuteRecursiveComposesHooks runs transitive closure with a
// fault schedule and a trace recorder attached to the engine: the
// chaotic traced run must produce the same output and metering as the
// bare run, and the trace must reconcile with the recovery ledger.
func TestExecuteRecursiveComposesHooks(t *testing.T) {
	edges := workload.PowerLawGraph("E", "src", "dst", 25, 60, 5)
	req := RecursiveRequest{Kind: RecTransitiveClosure, Edges: edges}

	bare := NewEngine(4, 9)
	want, err := bare.ExecuteRecursive(req)
	if err != nil {
		t.Fatal(err)
	}

	sched, err := chaos.ParseSchedule("11:crash=0.3,drop=0.1,after=2")
	if err != nil {
		t.Fatal(err)
	}
	hooked := NewEngine(4, 9)
	hooked.Chaos = sched
	got, err := hooked.ExecuteRecursive(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.TotalComm != want.TotalComm || got.MaxLoad != want.MaxLoad {
		t.Errorf("chaos run metered (%d, %d, %d), fault-free (%d, %d, %d)",
			got.MaxLoad, got.Rounds, got.TotalComm, want.MaxLoad, want.Rounds, want.TotalComm)
	}
	a, b := got.Output.Clone(), want.Output.Clone()
	a.Sort()
	b.Sort()
	if !testkit.BagEqual(a, b) {
		t.Errorf("chaos run output differs: %s", testkit.DiffSample(a, b))
	}
	if len(got.Metrics.Events()) == 0 {
		t.Error("the chaos run's ledger draws no events")
	}
}
