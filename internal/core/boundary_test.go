package core

import (
	"slices"
	"sync"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// setInstance generates a duplicate-free instance of q. On sets every
// algorithm returns each binding exactly once, so outputs compare with
// the reference row for row.
func setInstance(q hypergraph.Query, seed int64) map[string]*relation.Relation {
	rels := testkit.GenInstance(q, testkit.SkewUniform, testkit.GenConfig{Tuples: 40}, seed)
	for _, r := range rels {
		r.Dedup()
	}
	return rels
}

type boundaryCase struct {
	name string
	q    hypergraph.Query
	rels map[string]*relation.Relation
}

// boundaryCases covers every column order an algorithm can leave its
// answer in: the two-way join both ways round, with the second atom
// smaller (broadcast swaps its sides), multiway shapes, a single atom
// and a Cartesian pair.
func boundaryCases() []boundaryCase {
	twoWay := hypergraph.TwoWayJoin()
	smallS := setInstance(twoWay, 2)
	smallS["S"] = testkit.GenRelation("S", []string{"y", "z"}, testkit.SkewUniform, testkit.GenConfig{Tuples: 10, Domain: 14}, 3)
	smallS["S"].Dedup()
	swapped := hypergraph.NewQuery("swapped",
		hypergraph.Atom{Name: "S", Vars: []string{"y", "z"}},
		hypergraph.Atom{Name: "R", Vars: []string{"x", "y"}})
	var cases []boundaryCase
	for _, q := range []hypergraph.Query{
		twoWay,
		swapped,
		hypergraph.Triangle(),
		hypergraph.Path(3),
		hypergraph.Star(3),
		hypergraph.NewQuery("single", hypergraph.Atom{Name: "R", Vars: []string{"x", "y"}}),
		hypergraph.NewQuery("cartesian",
			hypergraph.Atom{Name: "R", Vars: []string{"x", "y"}},
			hypergraph.Atom{Name: "S", Vars: []string{"z", "w"}}),
	} {
		cases = append(cases, boundaryCase{q.Name, q, setInstance(q, 1)})
	}
	return append(cases, boundaryCase{"join2-small-second", twoWay, smallS})
}

// TestExecuteOutputInQueryVarOrder is the wall behind Engine.join's
// conditional projection: whatever column order an algorithm leaves
// behind, Execute answers in Query.Vars() order, named Query.Name, with
// exactly the reference's rows.
func TestExecuteOutputInQueryVarOrder(t *testing.T) {
	for _, tc := range boundaryCases() {
		want := Reference(tc.q, tc.rels)
		want.Sort()
		for _, alg := range applicable(tc.q) {
			exec, err := NewEngine(4, 1).Execute(Request{Query: tc.q, Relations: tc.rels, Algorithm: alg})
			if err != nil {
				t.Fatalf("%s on %s: %v", alg, tc.name, err)
			}
			out := exec.Output
			if !slices.Equal(out.Attrs(), tc.q.Vars()) || out.Name() != tc.q.Name {
				t.Errorf("%s on %s: output %s%v, want %s%v", alg, tc.name, out.Name(), out.Attrs(), tc.q.Name, tc.q.Vars())
				continue
			}
			got := out.Clone()
			got.Sort()
			if got.Len() != want.Len() {
				t.Errorf("%s on %s: %d rows, reference has %d", alg, tc.name, got.Len(), want.Len())
				continue
			}
			for i := 0; i < got.Len(); i++ {
				if !slices.Equal(got.Row(i), want.Row(i)) {
					t.Errorf("%s on %s: sorted row %d is %v, reference has %v", alg, tc.name, i, got.Row(i), want.Row(i))
					break
				}
			}
		}
	}
}

// TestExecuteLeavesInputsUntouched is the wall behind relabelling
// inputs in place: algorithms read the caller's relations through
// views sharing their storage, so no run — any algorithm, either join
// entry point, the adaptive and capacity-aware HyperCube drivers, two
// requests at once over one relation map — may change an input's name,
// schema or rows.
func TestExecuteLeavesInputsUntouched(t *testing.T) {
	snapshot := func(rels map[string]*relation.Relation) map[string]*relation.Relation {
		snap := make(map[string]*relation.Relation, len(rels))
		for name, r := range rels {
			snap[name] = r.Clone()
		}
		return snap
	}
	requireUntouched := func(what string, rels, snap map[string]*relation.Relation) {
		t.Helper()
		for name, r := range rels {
			s := snap[name]
			if r.Name() != s.Name() || !slices.Equal(r.Attrs(), s.Attrs()) || r.Len() != s.Len() {
				t.Fatalf("%s: input %s became %s%v with %d rows, was %s%v with %d", what, name,
					r.Name(), r.Attrs(), r.Len(), s.Name(), s.Attrs(), s.Len())
			}
			for i := 0; i < r.Len(); i++ {
				if !slices.Equal(r.Row(i), s.Row(i)) {
					t.Fatalf("%s: input %s row %d became %v, was %v", what, name, i, r.Row(i), s.Row(i))
				}
			}
		}
	}

	// Catalog-style inputs: attribute names unlike the atoms' variables,
	// and one relation behind both atoms of a self-join.
	edges := testkit.GenRelation("E", []string{"a", "b"}, testkit.SkewUniform, testkit.GenConfig{Tuples: 40}, 9)
	edges.Dedup()
	cases := append(boundaryCases(), boundaryCase{"self-join", hypergraph.TwoWayJoin(),
		map[string]*relation.Relation{"R": edges, "S": edges}})
	variants := []struct {
		name   string
		engine func() *Engine
	}{
		{"plain", func() *Engine { return NewEngine(4, 1) }},
		{"adaptive", func() *Engine { e := NewEngine(4, 1); e.Adaptive = true; return e }},
		{"capacities", func() *Engine { e := NewEngine(4, 1); e.Capacities = []float64{2, 1, 1, 1}; return e }},
	}
	for _, tc := range cases {
		snap := snapshot(tc.rels)
		vars := tc.q.Vars()
		spec := AggregateSpec{GroupBy: vars[:1], Fn: relation.Sum, AggVar: vars[len(vars)-1], OutAttr: "s"}
		for _, alg := range applicable(tc.q) {
			for _, v := range variants {
				if v.name != "plain" && alg != AlgHyperCube {
					continue
				}
				req := Request{Query: tc.q, Relations: tc.rels, Algorithm: alg}
				if _, err := v.engine().Execute(req); err != nil {
					t.Fatalf("%s %s on %s: %v", v.name, alg, tc.name, err)
				}
				if _, err := v.engine().ExecuteAggregate(req, spec); err != nil {
					t.Fatalf("%s %s aggregate on %s: %v", v.name, alg, tc.name, err)
				}
				requireUntouched(string(alg)+" "+v.name+" on "+tc.name, tc.rels, snap)
			}
		}
	}

	// Two requests at once over one relation map, as the service runs
	// them; under -race this also checks that the shared views are only
	// ever read.
	tri := boundaryCase{"triangle", hypergraph.Triangle(), setInstance(hypergraph.Triangle(), 5)}
	snap := snapshot(tri.rels)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, alg := range applicable(tri.q) {
				if _, err := NewEngine(4, int64(g)).Execute(Request{Query: tri.q, Relations: tri.rels, Algorithm: alg}); err != nil {
					t.Errorf("concurrent %s: %v", alg, err)
				}
			}
		}()
	}
	wg.Wait()
	requireUntouched("two concurrent requests", tri.rels, snap)
}
