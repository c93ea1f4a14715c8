package core

import (
	"strings"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/trace"
	"mpcquery/internal/workload"
)

// twoWayRequest makes its generated inputs sets, as relations enter
// the system; triangleRequest's edge sets already are.
func twoWayRequest(n int, seed int64) Request {
	return Request{
		Query: hypergraph.TwoWayJoin(),
		Relations: map[string]*relation.Relation{
			"R": workload.Uniform("R", []string{"x", "y"}, n, n/2, seed).Distinct(),
			"S": workload.Uniform("S", []string{"y", "z"}, n, n/2, seed+1).Distinct(),
		},
	}
}

func triangleRequest(nv, ne int, seed int64) Request {
	r, s, t := workload.TriangleInput(nv, ne, seed)
	return Request{
		Query:     hypergraph.Triangle(),
		Relations: map[string]*relation.Relation{"R": r, "S": s, "T": t},
	}
}

func checkAgainstReference(t *testing.T, req Request, exec *Execution) {
	t.Helper()
	want := Reference(req.Query, req.Relations)
	if got := exec.Output; got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("%s via %s: result differs from reference (%d vs %d tuples)",
			req.Query.Name, exec.Algorithm, exec.Output.Len(), want.Len())
	}
}

func TestEngineValidation(t *testing.T) {
	e := NewEngine(4, 1)
	if _, err := e.Execute(Request{Query: hypergraph.Query{Name: "empty"}}); err == nil {
		t.Fatal("empty query should error")
	}
	req := twoWayRequest(100, 1)
	delete(req.Relations, "S")
	if _, err := e.Execute(req); err == nil {
		t.Fatal("missing relation should error")
	}
	req2 := twoWayRequest(100, 1)
	req2.Relations["S"] = relation.New("S", "y")
	if _, err := e.Execute(req2); err == nil {
		t.Fatal("arity mismatch should error")
	}
	mustPanic(t, "bad p", func() { NewEngine(0, 1) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic: %s", what)
		}
	}()
	f()
}

func TestPlannerPicksHashJoinForUniform(t *testing.T) {
	e := NewEngine(8, 1)
	req := twoWayRequest(2000, 3)
	alg, reason, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if alg != AlgHashJoin {
		t.Fatalf("planner chose %s (%s), want hash join", alg, reason)
	}
}

func TestPlannerPicksBroadcastForSmallSide(t *testing.T) {
	e := NewEngine(8, 1)
	req := Request{
		Query: hypergraph.TwoWayJoin(),
		Relations: map[string]*relation.Relation{
			"R": workload.Uniform("R", []string{"x", "y"}, 20, 50, 1),
			"S": workload.Uniform("S", []string{"y", "z"}, 4000, 50, 2),
		},
	}
	alg, _, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if alg != AlgBroadcast {
		t.Fatalf("planner chose %s, want broadcast", alg)
	}
}

func TestPlannerPicksSkewJoinUnderSkew(t *testing.T) {
	e := NewEngine(8, 1)
	req := Request{
		Query: hypergraph.TwoWayJoin(),
		Relations: map[string]*relation.Relation{
			"R": workload.PlantHeavy("R", "y", "x", 500, 10000, []relation.Value{7}, []int{600}).Project("R", "x", "y"),
			"S": workload.PlantHeavy("S", "y", "z", 500, 10000, []relation.Value{7}, []int{600}),
		},
	}
	alg, _, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if alg != AlgSkewJoin {
		t.Fatalf("planner chose %s, want skew join", alg)
	}
}

func TestPlannerPicksHyperCubeForTriangle(t *testing.T) {
	e := NewEngine(8, 1)
	req := triangleRequest(200, 600, 1)
	alg, _, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if alg != AlgHyperCube {
		t.Fatalf("planner chose %s, want hypercube", alg)
	}
}

func TestPlannerPicksSkewHCForSkewedTriangle(t *testing.T) {
	e := NewEngine(8, 1)
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	u := relation.New("T", "z", "x")
	for i := relation.Value(0); i < 200; i++ {
		r.Append(0, i) // hub x = 0
		s.Append(i, i)
		u.Append(i, 0)
	}
	req := Request{Query: hypergraph.Triangle(),
		Relations: map[string]*relation.Relation{"R": r, "S": s, "T": u}}
	alg, reason, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if alg != AlgSkewHC {
		t.Fatalf("planner chose %s (%s), want skewhc", alg, reason)
	}
}

// TestPlannerIgnoresHeavyHittersOnShareOneVariable: at p = 4 the
// triangle's integer shares are x=2, y=2, z=1, so a heavy z confines
// its tuples to no slab and costs plain HyperCube nothing. Auto must
// plan hypercube, at forced hypercube's L, for every heavy fraction.
func TestPlannerIgnoresHeavyHittersOnShareOneVariable(t *testing.T) {
	q := hypergraph.Triangle()
	// GenMispredicted plants its heavy value on the first variable of
	// the query it is given: z, in this atom order.
	zFirst := hypergraph.NewQuery("triangle",
		hypergraph.Atom{Name: "T", Vars: []string{"z", "x"}},
		hypergraph.Atom{Name: "R", Vars: []string{"x", "y"}},
		hypergraph.Atom{Name: "S", Vars: []string{"y", "z"}})
	for _, frac := range []float64{0.3, 0.5, 0.8} {
		req := Request{Query: q, Relations: testkit.GenMispredicted(zFirst, testkit.GenConfig{Tuples: 480, HeavyFrac: frac}, 1)}
		auto, err := NewEngine(4, 1).Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		req.Algorithm = AlgHyperCube
		forced, err := NewEngine(4, 1).Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		if auto.Algorithm != AlgHyperCube || auto.MaxLoad != forced.MaxLoad {
			t.Errorf("HeavyFrac %.1f: auto plans %s (%s) at L %d, want %s at L %d",
				frac, auto.Algorithm, auto.Reason, auto.MaxLoad, AlgHyperCube, forced.MaxLoad)
		}
	}
}

// TestSkewHCReasonIsDeterministic: with a heavy hitter in every column
// of a triangle, the plan names the first heavy variable in q.Vars()
// order every time, and two traced executions export byte-identical
// traces (the reason is in the plan annotation).
func TestSkewHCReasonIsDeterministic(t *testing.T) {
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	u := relation.New("T", "z", "x")
	for i := relation.Value(1); i <= 120; i++ {
		r.Append(0, 0) // x = 0 and y = 0 are heavy
		r.Append(i, 1000+i)
		s.Append(0, 0) // so is z = 0
		s.Append(1000+i, 2000+i)
		u.Append(0, 0)
		u.Append(2000+i, i)
	}
	req := Request{Query: hypergraph.Triangle(), Relations: map[string]*relation.Relation{"R": r, "S": s, "T": u}}
	e := NewEngine(8, 1)
	for i := 0; i < 100; i++ {
		alg, reason, err := e.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		if want := "cyclic, heavy hitters on x (share 2): SkewHC"; alg != AlgSkewHC || reason != want {
			t.Fatalf("plan %d: %s (%s), want %s (%s)", i, alg, reason, AlgSkewHC, want)
		}
	}
	traced := func() string {
		exec, err := NewEngine(8, 1).Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := trace.WriteJSONL(&b, exec.Metrics.Events()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := traced(), traced(); a != b {
		t.Fatalf("two traced executions differ:\n%s\n---\n%s", a, b)
	}
}

func TestPlannerPicksGYMForAcyclicSmallOutput(t *testing.T) {
	// RST = R(x) ⋈ S(x,y) ⋈ T(y): its AGM bound is just |S| (S alone
	// covers both variables), far below the crossover — GYM territory.
	e := NewEngine(8, 1)
	req := Request{
		Query: hypergraph.RST(),
		Relations: map[string]*relation.Relation{
			"R": workload.Uniform("R", []string{"x"}, 1000, 500, 1),
			"S": workload.Uniform("S", []string{"x", "y"}, 50, 500, 2),
			"T": workload.Uniform("T", []string{"y"}, 1000, 500, 3),
		},
	}
	alg, reason, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if alg != AlgGYMOptimized {
		t.Fatalf("planner chose %s (%s), want gym-opt", alg, reason)
	}
}

func TestPlannerPicksHyperCubeWhenAGMHuge(t *testing.T) {
	// Path-4 over uniform data: the AGM bound is N^{ρ*} = N³, far above
	// the crossover, so the planner prefers the one-round HyperCube
	// over GYM's output-dependent load.
	e := NewEngine(8, 1)
	rels := map[string]*relation.Relation{}
	for _, r := range workload.PathInput(4, 100) {
		rels[r.Name()] = r
	}
	req := Request{Query: hypergraph.Path(4), Relations: rels}
	alg, _, err := e.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if alg != AlgHyperCube {
		t.Fatalf("planner chose %s, want hypercube", alg)
	}
}

func TestExecuteAllAlgorithmsOnTwoWay(t *testing.T) {
	req := twoWayRequest(600, 5)
	for _, alg := range applicable(req.Query) {
		e := NewEngine(8, 2)
		r := req
		r.Algorithm = alg
		exec, err := e.Execute(r)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if exec.Algorithm != alg {
			t.Fatalf("forced %s but ran %s", alg, exec.Algorithm)
		}
		checkAgainstReference(t, r, exec)
		if exec.Rounds < 1 || exec.MaxLoad < 1 {
			t.Fatalf("%s: metrics empty: %+v", alg, exec)
		}
	}
}

func TestExecuteAutoTriangle(t *testing.T) {
	req := triangleRequest(60, 400, 7)
	e := NewEngine(8, 3)
	exec, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Algorithm != AlgHyperCube {
		t.Fatalf("auto chose %s", exec.Algorithm)
	}
	if exec.Rounds != 1 {
		t.Fatalf("triangle rounds = %d, want 1", exec.Rounds)
	}
	checkAgainstReference(t, req, exec)
	if !strings.Contains(exec.Reason, "HyperCube") && !strings.Contains(exec.Reason, "no skew") {
		t.Fatalf("reason unhelpful: %q", exec.Reason)
	}
}

func TestExecuteAutoAcyclic(t *testing.T) {
	rels := workload.SlideTreeInput(60, 5)
	req := Request{Query: hypergraph.SlideTree(), Relations: rels}
	e := NewEngine(8, 4)
	exec, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, req, exec)
}

func TestExecuteGYMRejectsCyclic(t *testing.T) {
	req := triangleRequest(30, 100, 2)
	req.Algorithm = AlgGYM
	e := NewEngine(4, 1)
	if _, err := e.Execute(req); err == nil {
		t.Fatal("GYM on cyclic query should error")
	}
}

func TestExecuteRejectsJoin2OnMultiway(t *testing.T) {
	req := triangleRequest(30, 100, 2)
	req.Algorithm = AlgHashJoin
	e := NewEngine(4, 1)
	if _, err := e.Execute(req); err == nil {
		t.Fatal("hash join on a 3-atom query should error")
	}
}

func TestExecuteUnknownAlgorithm(t *testing.T) {
	req := twoWayRequest(50, 1)
	req.Algorithm = Algorithm("nonsense")
	e := NewEngine(4, 1)
	if _, err := e.Execute(req); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestDeterministicExecution(t *testing.T) {
	req := triangleRequest(50, 300, 9)
	run := func() *Execution {
		e := NewEngine(8, 77)
		exec, err := e.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		return exec
	}
	a, b := run(), run()
	if a.MaxLoad != b.MaxLoad || a.TotalComm != b.TotalComm || a.Rounds != b.Rounds {
		t.Fatalf("nondeterministic costs: %+v vs %+v", a, b)
	}
	if !a.Output.EqualAsSets(b.Output) {
		t.Fatal("nondeterministic output")
	}
}

func TestReferenceMatchesManual(t *testing.T) {
	q := hypergraph.TwoWayJoin()
	rels := map[string]*relation.Relation{
		"R": relation.FromRows("R", []string{"a", "b"}, [][]relation.Value{{1, 2}}),
		"S": relation.FromRows("S", []string{"c", "d"}, [][]relation.Value{{2, 3}}),
	}
	// Columns are positional: R's (a,b) maps to (x,y), S's (c,d) to (y,z).
	out := Reference(q, rels)
	if out.Len() != 1 {
		t.Fatalf("reference join = %d rows", out.Len())
	}
	row := out.Row(0)
	if row[0] != 1 || row[1] != 2 || row[2] != 3 {
		t.Fatalf("reference row = %v", row)
	}
}

func TestExecuteBigJoin(t *testing.T) {
	req := triangleRequest(50, 300, 4)
	req.Algorithm = AlgBigJoin
	e := NewEngine(8, 2)
	exec, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Rounds != 3 {
		t.Fatalf("bigjoin triangle rounds = %d, want 3", exec.Rounds)
	}
	checkAgainstReference(t, req, exec)
}
