package core

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
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
		want.Dedup()
		for _, alg := range algs {
			e := NewEngine(4, 1)
			r := req
			r.Algorithm = alg
			exec, err := e.Execute(r)
			if err != nil {
				t.Errorf("%s / %s: %v", name, alg, err)
				continue
			}
			got := exec.Output.Clone()
			got.Dedup()
			if !got.EqualAsSets(want) {
				t.Errorf("%s / %s: got %d tuples, want %d", name, alg, got.Len(), want.Len())
			}
		}
	}
}
