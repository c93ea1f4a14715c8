package bigjoin

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

func reference(q hypergraph.Query, rels map[string]*relation.Relation) *relation.Relation {
	inputs := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r := rels[a.Name]
		renamed := relation.New(a.Name, a.Vars...)
		for j := 0; j < r.Len(); j++ {
			renamed.AppendRow(r.Row(j))
		}
		inputs[i] = renamed
	}
	return relation.GenericJoin("want", q.Vars(), inputs...)
}

func TestPlanTriangle(t *testing.T) {
	q := hypergraph.Triangle()
	pl, err := NewPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.SeedAtom != q.AtomIndex("R") {
		t.Fatalf("seed atom = %d, want R", pl.SeedAtom)
	}
	if len(pl.Steps) != 1 {
		t.Fatalf("steps = %d, want 1 (only z to extend)", len(pl.Steps))
	}
	st := pl.Steps[0]
	if st.variable != "z" {
		t.Fatalf("step variable = %s", st.variable)
	}
	if len(st.verifiers) != 1 || q.Atoms[st.verifiers[0]].Name != "T" {
		t.Fatalf("verifiers = %v, want [T]", st.verifiers)
	}
	// setup + extend + verify = 3 rounds.
	if pl.Rounds() != 3 {
		t.Fatalf("planned rounds = %d, want 3", pl.Rounds())
	}
}

func TestPlanValidation(t *testing.T) {
	q := hypergraph.Triangle()
	if _, err := NewPlan(q, []string{"x", "y"}); err == nil {
		t.Fatal("short order should error")
	}
	if _, err := NewPlan(q, []string{"x", "x", "z"}); err == nil {
		t.Fatal("duplicate order should error")
	}
	if _, err := NewPlan(q, []string{"x", "y", "w"}); err == nil {
		t.Fatal("wrong variable should error")
	}
}

func TestRunTriangleCorrect(t *testing.T) {
	r, s, u := workload.TriangleInput(60, 400, 7)
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	q := hypergraph.Triangle()
	want := reference(q, rels)
	pl, err := NewPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mpc.NewCluster(8, 1)
	res := Run(c, pl, rels, "out", 42)
	got := c.Gather("out")
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("bigjoin triangles: got %d, want %d", got.Len(), want.Len())
	}
	if res.Rounds != pl.Rounds() {
		t.Fatalf("executed %d rounds, plan said %d", res.Rounds, pl.Rounds())
	}
}

func TestRunCycle4Correct(t *testing.T) {
	g := workload.RandomGraph("E", "a", "b", 40, 300, 9)
	q := hypergraph.Cycle(4)
	rels := map[string]*relation.Relation{}
	for _, a := range q.Atoms {
		e := relation.New(a.Name, a.Vars...)
		for i := 0; i < g.Len(); i++ {
			e.AppendRow(g.Row(i))
		}
		rels[a.Name] = e
	}
	want := reference(q, rels)
	pl, err := NewPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mpc.NewCluster(8, 1)
	Run(c, pl, rels, "out", 42)
	got := c.Gather("out")
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("bigjoin 4-cycles: got %d, want %d", got.Len(), want.Len())
	}
}

func TestRunPathNoVerifiers(t *testing.T) {
	q := hypergraph.Path(4)
	rels := map[string]*relation.Relation{}
	for _, r := range workload.PathInput(4, 80) {
		rels[r.Name()] = r
	}
	pl, err := NewPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range pl.Steps {
		if len(st.verifiers) != 0 {
			t.Fatalf("path plan should have no verifiers: %+v", st)
		}
	}
	c := mpc.NewCluster(8, 1)
	res := Run(c, pl, rels, "out", 42)
	got := c.Gather("out")
	if got.Len() != 80 {
		t.Fatalf("path join = %d, want 80", got.Len())
	}
	// setup + 3 extends = 4 rounds.
	if res.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4", res.Rounds)
	}
}

func TestRunStarQuery(t *testing.T) {
	q := hypergraph.Star(4)
	rels := map[string]*relation.Relation{}
	for i, a := range q.Atoms {
		rels[a.Name] = workload.Uniform(a.Name, a.Vars, 100, 40, int64(i+1)).Distinct()
	}
	want := reference(q, rels)
	pl, err := NewPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mpc.NewCluster(8, 1)
	Run(c, pl, rels, "out", 42)
	got := c.Gather("out")
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatal("bigjoin star wrong")
	}
}

func TestRunRSTWithUnaryAtoms(t *testing.T) {
	q := hypergraph.RST()
	rels := map[string]*relation.Relation{
		"R": workload.Uniform("R", []string{"x"}, 50, 30, 1).Distinct(),
		"S": workload.Uniform("S", []string{"x", "y"}, 120, 30, 2).Distinct(),
		"T": workload.Uniform("T", []string{"y"}, 50, 30, 3).Distinct(),
	}
	want := reference(q, rels)
	pl, err := NewPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mpc.NewCluster(4, 1)
	Run(c, pl, rels, "out", 42)
	got := c.Gather("out")
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatal("bigjoin RST wrong")
	}
}

// TestBindingsBoundedByJoinPrefix: the binding-set sizes are the
// algorithm's intermediate footprint; on matching (skew-free) data they
// never grow (the slide-57 regime).
func TestBindingsBoundedOnMatchings(t *testing.T) {
	q := hypergraph.Path(5)
	rels := map[string]*relation.Relation{}
	for _, r := range workload.PathInput(5, 100) {
		rels[r.Name()] = r
	}
	pl, err := NewPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mpc.NewCluster(8, 1)
	res := Run(c, pl, rels, "out", 42)
	if res.MaxBindings > 100 {
		t.Fatalf("bindings grew to %d on matching data", res.MaxBindings)
	}
}

func TestRunDeterministic(t *testing.T) {
	r, s, u := workload.TriangleInput(40, 250, 3)
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	pl, _ := NewPlan(hypergraph.Triangle(), nil)
	run := func() (int64, int64) {
		c := mpc.NewCluster(8, 5)
		Run(c, pl, rels, "out", 42)
		return c.Metrics().MaxLoad(), c.Metrics().TotalComm()
	}
	l1, c1 := run()
	l2, c2 := run()
	if l1 != l2 || c1 != c2 {
		t.Fatal("nondeterministic execution")
	}
}

// Regression: atoms fully bound by the seed alone (parallel atoms over
// the same variable pair) must still filter the bindings — the query is
// the intersection of the three relations.
func TestSeedVerifiers(t *testing.T) {
	q := hypergraph.NewQuery("par",
		hypergraph.Atom{Name: "R1", Vars: []string{"d", "b"}},
		hypergraph.Atom{Name: "R2", Vars: []string{"d", "b"}},
		hypergraph.Atom{Name: "R3", Vars: []string{"d", "b"}},
	)
	rels := map[string]*relation.Relation{
		"R1": relation.FromRows("R1", []string{"d", "b"}, [][]relation.Value{{1, 1}, {2, 2}, {3, 3}}),
		"R2": relation.FromRows("R2", []string{"d", "b"}, [][]relation.Value{{2, 2}, {3, 3}, {4, 4}}),
		"R3": relation.FromRows("R3", []string{"d", "b"}, [][]relation.Value{{3, 3}, {4, 4}, {5, 5}}),
	}
	pl, err := NewPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.SeedVerifiers) != 2 {
		t.Fatalf("seed verifiers = %v, want 2", pl.SeedVerifiers)
	}
	c := mpc.NewCluster(4, 1)
	res := Run(c, pl, rels, "out", 42)
	got := c.Gather("out")
	if got.Len() != 1 || got.Row(0)[0] != 3 {
		t.Fatalf("intersection = %v, want {(3,3)}", got)
	}
	if res.Rounds != pl.Rounds() {
		t.Fatalf("rounds %d != planned %d", res.Rounds, pl.Rounds())
	}
}
