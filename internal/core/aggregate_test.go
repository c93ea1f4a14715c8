package core

import (
	"fmt"
	"slices"
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpcnet"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/workload"
)

// slide52Request builds the Orders ⋈ Customers workload of slide 52.
func slide52Request(n int, seed int64) Request {
	orders := relation.New("Orders", "oid", "cKey", "month", "price")
	base := workload.Uniform("tmp", []string{"c", "m", "p"}, n, 50, seed)
	for i := 0; i < n; i++ {
		row := base.Row(i)
		orders.Append(relation.Value(i), row[0], row[1]%12, 5+row[2]%200)
	}
	customers := workload.Matching("Customers", []string{"cKey", "region"}, 50)
	return Request{
		Query: hypergraph.NewQuery("sales",
			hypergraph.Atom{Name: "Orders", Vars: []string{"oid", "cKey", "month", "price"}},
			hypergraph.Atom{Name: "Customers", Vars: []string{"cKey", "region"}},
		),
		Relations: map[string]*relation.Relation{"Orders": orders, "Customers": customers},
	}
}

func TestExecuteAggregateSlide52(t *testing.T) {
	req := slide52Request(3000, 3)
	e := NewEngine(8, 1)
	exec, err := e.ExecuteAggregate(req, AggregateSpec{
		GroupBy: []string{"cKey", "month"},
		Fn:      relation.Sum,
		AggVar:  "price",
		OutAttr: "total",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: local join then local group-by.
	joined := Reference(req.Query, req.Relations)
	want := relation.GroupBy("want", joined, []string{"cKey", "month"}, relation.Sum, "price", "total")
	if !exec.Output.EqualAsSets(want) {
		t.Fatalf("aggregate differs: %d vs %d groups", exec.Output.Len(), want.Len())
	}
	if exec.Rounds < 2 {
		t.Fatalf("rounds = %d; join + aggregation expected", exec.Rounds)
	}
}

func TestExecuteAggregateCount(t *testing.T) {
	req := slide52Request(1000, 5)
	e := NewEngine(4, 1)
	exec, err := e.ExecuteAggregate(req, AggregateSpec{
		GroupBy: []string{"month"},
		Fn:      relation.Count,
		OutAttr: "n",
	})
	if err != nil {
		t.Fatal(err)
	}
	var total relation.Value
	for i := 0; i < exec.Output.Len(); i++ {
		total += exec.Output.Row(i)[1]
	}
	want := Reference(req.Query, req.Relations)
	if int(total) != want.Len() {
		t.Fatalf("counts sum to %d, want join size %d", total, want.Len())
	}
}

func TestExecuteAggregateValidation(t *testing.T) {
	req := slide52Request(100, 1)
	e := NewEngine(4, 1)
	if _, err := e.ExecuteAggregate(req, AggregateSpec{Fn: relation.Sum, AggVar: "price", OutAttr: "t"}); err == nil {
		t.Fatal("missing group-by should error")
	}
	if _, err := e.ExecuteAggregate(req, AggregateSpec{GroupBy: []string{"nope"}, Fn: relation.Sum, AggVar: "price", OutAttr: "t"}); err == nil {
		t.Fatal("unknown group-by var should error")
	}
	if _, err := e.ExecuteAggregate(req, AggregateSpec{GroupBy: []string{"month"}, Fn: relation.Sum, AggVar: "nope", OutAttr: "t"}); err == nil {
		t.Fatal("unknown agg var should error")
	}
}

// TestAllAlgorithmsOnEdgeInputs sweeps every registered algorithm that
// applies to a two-way join over degenerate inputs: empty relations,
// single tuples, and all-same-value relations. Nothing may panic, and
// results must match the reference.
func TestAllAlgorithmsOnEdgeInputs(t *testing.T) {
	mk2 := func(rRows, sRows [][]relation.Value) Request {
		return Request{
			Query: hypergraph.TwoWayJoin(),
			Relations: map[string]*relation.Relation{
				"R": relation.FromRows("R", []string{"x", "y"}, rRows),
				"S": relation.FromRows("S", []string{"y", "z"}, sRows),
			},
		}
	}
	inputs := map[string]Request{
		"both empty":  mk2(nil, nil),
		"left empty":  mk2(nil, [][]relation.Value{{1, 2}}),
		"right empty": mk2([][]relation.Value{{1, 2}}, nil),
		"singletons":  mk2([][]relation.Value{{1, 2}}, [][]relation.Value{{2, 3}}),
		"all same y": mk2(
			[][]relation.Value{{1, 7}, {2, 7}, {3, 7}},
			[][]relation.Value{{7, 4}, {7, 5}}),
	}
	algs := applicable(hypergraph.TwoWayJoin())
	for name, req := range inputs {
		want := Reference(req.Query, req.Relations)
		for _, alg := range algs {
			e := NewEngine(4, 1)
			r := req
			r.Algorithm = alg
			exec, err := e.Execute(r)
			if err != nil {
				t.Errorf("%s / %s: %v", name, alg, err)
				continue
			}
			if got := exec.Output; got.Len() != want.Len() || !got.EqualAsSets(want) {
				t.Errorf("%s / %s: got %d tuples, want %d", name, alg, got.Len(), want.Len())
			}
		}
	}
}

// TestExecuteAggregateOnEveryBackend pins that the group-by's input
// placement does not depend on how rounds are delivered. The group-by
// reads the join's fragments in the order they landed, so over loopback
// TCP and under every one-round fault schedule, for every algorithm
// that applies to the two-way join and to path3, the output (row order
// included) and every round's per-server (Recv, RecvWords) must equal
// the local fault-free run.
func TestExecuteAggregateOnEveryBackend(t *testing.T) {
	const p = 4
	path3 := hypergraph.Path(3)
	cases := []struct {
		req  Request
		spec AggregateSpec
	}{
		{twoWayRequest(300, 3), AggregateSpec{GroupBy: []string{"x"}, Fn: relation.Sum, AggVar: "z", OutAttr: "total"}},
		{Request{Query: path3, Relations: map[string]*relation.Relation{
			"R1": workload.Uniform("R1", []string{"A0", "A1"}, 200, 100, 4),
			"R2": workload.Uniform("R2", []string{"A1", "A2"}, 200, 100, 5),
			"R3": workload.Uniform("R3", []string{"A2", "A3"}, 200, 100, 6),
		}}, AggregateSpec{GroupBy: []string{"A0"}, Fn: relation.Sum, AggVar: "A3", OutAttr: "total"}},
	}
	for _, tc := range cases {
		tr, err := mpcnet.NewLoopback(p, mpcnet.Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		for _, alg := range applicable(tc.req.Query) {
			req := tc.req
			req.Algorithm = alg
			t.Run(fmt.Sprintf("%s/%s", req.Query.Name, alg), func(t *testing.T) {
				want, err := NewEngine(p, 7).ExecuteAggregate(req, tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if want.Output.Len() < 2 {
					t.Fatalf("%d groups; the instance should have several", want.Output.Len())
				}
				tcp := NewEngine(p, 7)
				tcp.Transport = tr
				got, err := tcp.ExecuteAggregate(req, tc.spec)
				if err != nil {
					t.Fatalf("tcp: %v", err)
				}
				assertSameAggregate(t, "tcp", want, got)
				for _, spec := range testkit.OneRoundChaosSpecs {
					chaotic := NewEngine(p, 7)
					chaotic.Chaos = chaos.MustParseSchedule(spec)
					got, err := chaotic.ExecuteAggregate(req, tc.spec)
					if err != nil {
						t.Fatalf("chaos %s: %v", spec, err)
					}
					assertSameAggregate(t, "chaos "+spec, want, got)
					if !faulted(got) {
						t.Errorf("chaos %s injected nothing into %d rounds", spec, got.Rounds)
					}
				}
			})
		}
	}
}

// assertSameAggregate fails unless got has want's output rows, in
// order, and want's per-round, per-server (Recv, RecvWords).
func assertSameAggregate(t *testing.T, label string, want, got *Execution) {
	t.Helper()
	if want.Output.Len() != got.Output.Len() {
		t.Fatalf("%s: %d output rows, local fault-free %d", label, got.Output.Len(), want.Output.Len())
	}
	for i := 0; i < want.Output.Len(); i++ {
		if !slices.Equal(want.Output.Row(i), got.Output.Row(i)) {
			t.Fatalf("%s: output row %d is %v, local fault-free %v", label, i, got.Output.Row(i), want.Output.Row(i))
		}
	}
	ws, gs := want.Metrics.RoundStats(), got.Metrics.RoundStats()
	if len(ws) != len(gs) {
		t.Fatalf("%s: %d rounds, local fault-free %d", label, len(gs), len(ws))
	}
	for i := range ws {
		if ws[i].Name != gs[i].Name || !slices.Equal(ws[i].Recv, gs[i].Recv) || !slices.Equal(ws[i].RecvWords, gs[i].RecvWords) {
			t.Fatalf("%s: round %d is %s %v %v, local fault-free %s %v %v",
				label, i, gs[i].Name, gs[i].Recv, gs[i].RecvWords, ws[i].Name, ws[i].Recv, ws[i].RecvWords)
		}
	}
}

// faulted reports whether the fault schedule hit any of ex's rounds.
func faulted(ex *Execution) bool {
	for _, st := range ex.Metrics.RoundStats() {
		if cs := st.Chaos; cs != nil && (cs.Dropped+cs.Duplicated+cs.Redelivered > 0 || cs.Crashes() > 0 || cs.MaxStraggle() > 0) {
			return true
		}
	}
	return false
}
