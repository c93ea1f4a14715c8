package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
)

// applicable lists the registered algorithms whose Applies accepts q —
// what the sweeps in this package run instead of hand-kept lists.
func applicable(q hypergraph.Query) []Algorithm {
	var algs []Algorithm
	for _, d := range Registry() {
		if d.Applies(q) == nil {
			algs = append(algs, Algorithm(d.Alg))
		}
	}
	return algs
}

// TestRegistryMatchesAlgorithms keeps the two places an algorithm is
// named in step: every Alg* constant declared in core.go except AlgAuto
// has exactly one descriptor, every descriptor has a constant, and
// every descriptor in the engine's registry can run.
func TestRegistryMatchesAlgorithms(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "core.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	constants := map[string]string{} // value → constant name
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 || !strings.HasPrefix(vs.Names[0].Name, "Alg") {
			return true
		}
		if lit, ok := vs.Values[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			v, _ := strconv.Unquote(lit.Value)
			constants[v] = vs.Names[0].Name
		}
		return true
	})
	if constants[string(AlgAuto)] != "AlgAuto" || constants[string(AlgHLTriangle)] != "AlgHLTriangle" {
		t.Fatalf("constant scan of core.go is broken: %v", constants)
	}
	delete(constants, string(AlgAuto))

	seen := map[string]int{}
	for _, d := range Registry() {
		seen[d.Alg]++
		if d.Run == nil || d.Applies == nil || d.Predict == nil {
			t.Errorf("descriptor %q is incomplete: the engine's registry holds only runnable algorithms", d.Alg)
		}
		if constants[d.Alg] == "" {
			t.Errorf("descriptor %q has no core.Alg* constant", d.Alg)
		}
	}
	for v, name := range constants {
		if seen[v] != 1 {
			t.Errorf("%s = %q has %d descriptors, want exactly 1", name, v, seen[v])
		}
	}
}

// TestForcedAlgorithmNeverPanics is the wall behind "what EXPLAIN
// rejects the engine refuses": every registered algorithm forced onto
// every query shape, through both join entry points, either computes
// the reference answer — on set inputs, exactly its rows, none
// repeated — or returns its own Applies text as the error. gym, gym-opt
// and binaryplan once panicked on the Cartesian product.
func TestForcedAlgorithmNeverPanics(t *testing.T) {
	queries := []hypergraph.Query{
		hypergraph.TwoWayJoin(),
		hypergraph.Triangle(),
		hypergraph.Path(3),
		hypergraph.Star(3),
		hypergraph.NewQuery("single", hypergraph.Atom{Name: "R", Vars: []string{"x", "y"}}),
		hypergraph.NewQuery("cartesian",
			hypergraph.Atom{Name: "R", Vars: []string{"x", "y"}},
			hypergraph.Atom{Name: "S", Vars: []string{"z", "w"}}),
	}
	for _, q := range queries {
		rels := setInstance(q, 1)
		want := Reference(q, rels)
		vars := q.Vars()
		spec := AggregateSpec{GroupBy: vars[:1], Fn: relation.Max, AggVar: vars[len(vars)-1], OutAttr: "m"}
		wantAgg := relation.GroupBy("want", want, spec.GroupBy, spec.Fn, spec.AggVar, spec.OutAttr)
		for _, d := range Registry() {
			req := Request{Query: q, Relations: rels, Algorithm: Algorithm(d.Alg)}
			refusal := ""
			if err := d.Applies(q); err != nil {
				refusal = "core: " + d.Alg + ": " + err.Error()
			}
			check := func(entry string, exec *Execution, err error, want *relation.Relation) {
				t.Helper()
				switch {
				case refusal != "" && (err == nil || err.Error() != refusal):
					t.Errorf("%s %s on %s: error %v, want %q", entry, d.Alg, q.Name, err, refusal)
				case refusal == "" && err != nil:
					t.Errorf("%s %s on %s: %v, but Applies accepts the query", entry, d.Alg, q.Name, err)
				case refusal == "":
					if got := exec.Output; got.Len() != want.Len() || !got.EqualAsSets(want) {
						t.Errorf("%s %s on %s: %d tuples, reference has %d", entry, d.Alg, q.Name, got.Len(), want.Len())
					}
				}
			}
			exec, err := NewEngine(4, 1).Execute(req)
			check("Execute", exec, err, want)
			exec, err = NewEngine(4, 1).ExecuteAggregate(req, spec)
			check("ExecuteAggregate", exec, err, wantAgg)
		}
	}
}
