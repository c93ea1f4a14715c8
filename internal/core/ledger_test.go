package core

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/trace"
	"mpcquery/internal/workload"
)

// TestOneLedger is the wall behind "one (L, r, C) per execution": for
// every entry point and every registered algorithm that applies, the
// Execution's Rounds,
// MaxLoad and TotalComm are exactly its Metrics' — one ledger, one
// cluster — and the trace it draws frames exactly that ledger's
// rounds, once each, under consecutive round indices. Before the run
// spine, ExecuteAggregate stitched two clusters together: its Metrics
// covered only the group-by round and a trace restarted at round 0.
func TestOneLedger(t *testing.T) {
	check := func(t *testing.T, run func(e *Engine) (*Execution, error)) {
		t.Helper()
		exec, err := run(NewEngine(8, 3))
		if err != nil {
			t.Fatal(err)
		}
		m := exec.Metrics
		if exec.Rounds != m.Rounds() || exec.MaxLoad != m.MaxLoad() || exec.TotalComm != m.TotalComm() {
			t.Errorf("Execution reports (L, r, C) = (%d, %d, %d), its Metrics (%d, %d, %d)",
				exec.MaxLoad, exec.Rounds, exec.TotalComm, m.MaxLoad(), m.Rounds(), m.TotalComm())
		}
		rounds := m.RoundStats()
		var starts, ends int
		for _, ev := range m.Events() {
			switch ev.Kind {
			case trace.KindRoundStart:
				if starts >= len(rounds) || ev.Round != starts || ev.Name != rounds[starts].Name {
					t.Fatalf("round_start %d %q is not the ledger's round %d of %d", ev.Round, ev.Name, starts, len(rounds))
				}
				starts++
			case trace.KindRoundEnd:
				if ends >= len(rounds) || ev.Round != ends || ev.Name != rounds[ends].Name {
					t.Fatalf("round_end %d %q is not the ledger's round %d of %d", ev.Round, ev.Name, ends, len(rounds))
				}
				ends++
			}
		}
		if starts != len(rounds) || ends != len(rounds) {
			t.Errorf("trace saw %d round_start and %d round_end events, the ledger has %d rounds", starts, ends, len(rounds))
		}
	}

	for _, q := range []hypergraph.Query{hypergraph.Triangle(), hypergraph.Path(3), hypergraph.Star(3), hypergraph.TwoWayJoin()} {
		rels := testkit.GenInstance(q, testkit.SkewUniform, testkit.GenConfig{Tuples: 200}, 1)
		for _, alg := range append([]Algorithm{AlgAuto}, applicable(q)...) {
			req := Request{Query: q, Relations: rels, Algorithm: alg}
			t.Run(q.Name+"/"+string(alg), func(t *testing.T) {
				check(t, func(e *Engine) (*Execution, error) { return e.Execute(req) })
			})
		}
	}

	for name, spec := range map[string]AggregateSpec{
		"sum":   {GroupBy: []string{"cKey", "month"}, Fn: relation.Sum, AggVar: "price", OutAttr: "total"},
		"count": {GroupBy: []string{"month"}, Fn: relation.Count, OutAttr: "n"},
	} {
		t.Run("aggregate/"+name, func(t *testing.T) {
			check(t, func(e *Engine) (*Execution, error) { return e.ExecuteAggregate(slide52Request(600, 3), spec) })
		})
	}

	edges := workload.RandomGraph("E", "src", "dst", 20, 40, 3)
	for _, kind := range []RecursiveKind{RecTransitiveClosure, RecReachable, RecConnectedComponents} {
		req := RecursiveRequest{Kind: kind, Edges: edges, Sources: []relation.Value{edges.Row(0)[0]}}
		t.Run("recursive/"+string(kind), func(t *testing.T) {
			check(t, func(e *Engine) (*Execution, error) { return e.ExecuteRecursive(req) })
		})
	}
}
