package recursive

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

func edgeRel(t *testing.T, pairs ...[2]relation.Value) *relation.Relation {
	t.Helper()
	r := relation.New("E", "src", "dst")
	for _, p := range pairs {
		r.AppendRow(p[:])
	}
	return r
}

func gatherSorted(c *mpc.Cluster, name string, attrs []string) *relation.Relation {
	got := testkit.GatherResult(c, name, attrs)
	got.Sort()
	return got
}

func TestTransitiveClosureChain(t *testing.T) {
	edges := edgeRel(t, [2]relation.Value{1, 2}, [2]relation.Value{2, 3}, [2]relation.Value{3, 4})
	c := mpc.NewCluster(3, 7)
	res, err := TransitiveClosure(c, edges, "tc", 42)
	if err != nil {
		t.Fatal(err)
	}
	want := testkit.OracleFixpoint("tc", edges)
	got := gatherSorted(c, "tc", []string{"src", "dst"})
	if !testkit.BagEqual(got, want) {
		t.Fatalf("closure differs from oracle: %s", testkit.DiffSample(got, want))
	}
	// Chain of 3 edges: deltas are length-1, length-2, length-3 paths,
	// then one empty-delta-producing pass — 3 iterations, 2 rounds each.
	if res.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", res.Iterations)
	}
	if res.Rounds != 2*res.Iterations {
		t.Errorf("rounds = %d, want 2*%d", res.Rounds, res.Iterations)
	}
	if res.OutSize != want.Len() {
		t.Errorf("OutSize = %d, want %d", res.OutSize, want.Len())
	}
	testkit.AssertRounds(t, c, res.Rounds)
}

func TestEmptyGraphDegenerate(t *testing.T) {
	empty := relation.New("E", "src", "dst")
	c := mpc.NewCluster(4, 1)
	res, err := TransitiveClosure(c, empty, "tc", 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || res.Rounds != 0 || res.OutSize != 0 {
		t.Errorf("empty-graph closure: %+v, want 0 iterations/rounds/size", res)
	}
	if res, err = ConnectedComponents(c, empty, "cc", 9); err != nil {
		t.Fatal(err)
	} else if res.Iterations != 0 || res.OutSize != 0 {
		t.Errorf("empty-graph components: %+v, want 0 iterations/size", res)
	}
	if res, err = Reachable(c, empty, nil, "reach", 9); err != nil {
		t.Fatal(err)
	} else if res.Iterations != 0 || res.OutSize != 0 {
		t.Errorf("empty-source reachability: %+v, want 0 iterations/size", res)
	}
}

func TestSelfLoopDegenerate(t *testing.T) {
	edges := edgeRel(t, [2]relation.Value{5, 5}, [2]relation.Value{5, 6}, [2]relation.Value{6, 6})
	c := mpc.NewCluster(2, 3)
	if _, err := TransitiveClosure(c, edges, "tc", 11); err != nil {
		t.Fatal(err)
	}
	want := testkit.OracleFixpoint("tc", edges)
	got := gatherSorted(c, "tc", []string{"src", "dst"})
	if !testkit.BagEqual(got, want) {
		t.Fatalf("self-loop closure differs from oracle: %s", testkit.DiffSample(got, want))
	}
	if _, err := ConnectedComponents(c, edges, "cc", 11); err != nil {
		t.Fatal(err)
	}
	wantCC := testkit.OracleComponents("cc", edges)
	gotCC := gatherSorted(c, "cc", []string{"v", "comp"})
	if !testkit.BagEqual(gotCC, wantCC) {
		t.Fatalf("self-loop components differ from oracle: %s", testkit.DiffSample(gotCC, wantCC))
	}
}

func TestSingleComponentCycle(t *testing.T) {
	edges := edgeRel(t, [2]relation.Value{1, 2}, [2]relation.Value{2, 3}, [2]relation.Value{3, 1})
	c := mpc.NewCluster(3, 5)
	if _, err := TransitiveClosure(c, edges, "tc", 13); err != nil {
		t.Fatal(err)
	}
	got := gatherSorted(c, "tc", []string{"src", "dst"})
	if got.Len() != 9 { // complete closure of a 3-cycle
		t.Fatalf("cycle closure has %d tuples, want 9", got.Len())
	}
	res, err := ConnectedComponents(c, edges, "cc", 13)
	if err != nil {
		t.Fatal(err)
	}
	gotCC := gatherSorted(c, "cc", []string{"v", "comp"})
	for i := 0; i < gotCC.Len(); i++ {
		if gotCC.Row(i)[1] != 1 {
			t.Fatalf("vertex %d labelled %d, want component 1", gotCC.Row(i)[0], gotCC.Row(i)[1])
		}
	}
	if res.OutSize != 3 {
		t.Errorf("components OutSize = %d, want 3", res.OutSize)
	}
}

func TestReachableSources(t *testing.T) {
	edges := edgeRel(t,
		[2]relation.Value{1, 2}, [2]relation.Value{2, 3},
		[2]relation.Value{10, 11}, [2]relation.Value{20, 21})
	c := mpc.NewCluster(2, 2)
	res, err := Reachable(c, edges, []relation.Value{1, 10, 99}, "reach", 17)
	if err != nil {
		t.Fatal(err)
	}
	want := testkit.OracleReachable("reach", edges, []relation.Value{1, 10, 99})
	got := gatherSorted(c, "reach", []string{"src"})
	if !testkit.BagEqual(got, want) {
		t.Fatalf("reachability differs from oracle: %s", testkit.DiffSample(got, want))
	}
	// 1, 2, 3, 10, 11, and the edge-less source 99.
	if res.OutSize != 6 {
		t.Errorf("OutSize = %d, want 6", res.OutSize)
	}
}

func TestDuplicateInputEdges(t *testing.T) {
	edges := edgeRel(t, [2]relation.Value{1, 2}, [2]relation.Value{1, 2}, [2]relation.Value{2, 3})
	c := mpc.NewCluster(2, 4)
	if _, err := TransitiveClosure(c, edges, "tc", 21); err != nil {
		t.Fatal(err)
	}
	want := testkit.OracleFixpoint("tc", edges)
	got := gatherSorted(c, "tc", []string{"src", "dst"})
	if !testkit.BagEqual(got, want) {
		t.Fatalf("duplicate-edge closure differs from oracle: %s", testkit.DiffSample(got, want))
	}
}

func TestArityValidation(t *testing.T) {
	bad := relation.New("E", "a")
	c := mpc.NewCluster(2, 1)
	if _, err := TransitiveClosure(c, bad, "tc", 1); err == nil {
		t.Error("TransitiveClosure accepted a unary relation")
	}
	if _, err := ConnectedComponents(c, bad, "cc", 1); err == nil {
		t.Error("ConnectedComponents accepted a unary relation")
	}
	if _, err := Reachable(c, bad, nil, "r", 1); err == nil {
		t.Error("Reachable accepted a unary relation")
	}
	if _, _, err := NewClosureView(c, bad, "v", 1); err == nil {
		t.Error("NewClosureView accepted a unary relation")
	}
}

func TestJoinViewBasic(t *testing.T) {
	r := relation.New("R", "x", "y")
	r.AppendRow([]relation.Value{1, 10})
	r.AppendRow([]relation.Value{2, 10})
	s := relation.New("S", "y2", "z")
	s.AppendRow([]relation.Value{10, 100})
	c := mpc.NewCluster(3, 6)
	view, res, err := NewJoinView(c, r, s, "V", 23)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.OutSize != 2 {
		t.Fatalf("init: %+v, want 1 round, 2 tuples", res)
	}

	// Delete-then-reinsert folds to a no-op batch.
	stats, err := view.ApplyBatch([]Op{
		{Rel: "R", Insert: false, Row: []relation.Value{1, 10}},
		{Rel: "R", Insert: true, Row: []relation.Value{1, 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 0 || stats.Deleted != 0 {
		t.Fatalf("no-op batch changed the view: %+v", stats)
	}

	// A real mixed batch, checked against recomputation from scratch.
	ops := []Op{
		{Rel: "S", Insert: false, Row: []relation.Value{10, 100}},
		{Rel: "S", Insert: true, Row: []relation.Value{10, 200}},
		{Rel: "R", Insert: true, Row: []relation.Value{3, 10}},
	}
	if stats, err = view.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 {
		t.Errorf("batch cost %d rounds, want 1", stats.Rounds)
	}
	bases := map[string]*relation.Relation{"R": r, "S": s}
	var setOps []testkit.SetOp
	for _, op := range ops {
		setOps = append(setOps, testkit.SetOp{Rel: op.Rel, Insert: op.Insert, Row: op.Row})
	}
	next := testkit.ApplySetOps(bases, setOps)
	want := testkit.OracleJoinView("V", next["R"], next["S"])
	got := gatherSorted(c, "V", []string{"x", "y", "z"})
	if !testkit.BagEqual(got, want) {
		t.Fatalf("maintained view differs from recomputation: %s", testkit.DiffSample(got, want))
	}
	if stats.Inserted != 3 || stats.Deleted != 2 {
		t.Errorf("stats = %+v, want 3 inserted, 2 deleted", stats)
	}
}

func TestJoinViewRejectsUnknownBase(t *testing.T) {
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y2", "z")
	c := mpc.NewCluster(2, 1)
	view, _, err := NewJoinView(c, r, s, "V", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := view.ApplyBatch([]Op{{Rel: "T", Insert: true, Row: []relation.Value{1, 2}}}); err == nil {
		t.Error("ApplyBatch accepted an op against an unknown base")
	}
}

func TestClosureViewBasic(t *testing.T) {
	edges := edgeRel(t, [2]relation.Value{1, 2}, [2]relation.Value{2, 3}, [2]relation.Value{1, 3})
	c := mpc.NewCluster(3, 8)
	view, res, err := NewClosureView(c, edges, "tcv", 31)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutSize != 3 { // {12, 23, 13}
		t.Fatalf("initial closure size %d, want 3", res.OutSize)
	}

	// Delete (2,3): (1,3) survives through the direct edge — the
	// rederivation case DRed exists for.
	stats, err := view.ApplyBatch([]EdgeOp{{Insert: false, From: 2, To: 3}})
	if err != nil {
		t.Fatal(err)
	}
	cur := edgeRel(t, [2]relation.Value{1, 2}, [2]relation.Value{1, 3})
	want := testkit.OracleFixpoint("tcv", cur)
	got := gatherSorted(c, "tcv", []string{"src", "dst"})
	if !testkit.BagEqual(got, want) {
		t.Fatalf("after delete: %s", testkit.DiffSample(got, want))
	}
	if stats.Deleted != 1 || stats.Inserted != 0 {
		t.Errorf("delete stats = %+v, want 1 deleted", stats)
	}

	// Insert a chain extension and a brand-new component.
	if _, err = view.ApplyBatch([]EdgeOp{
		{Insert: true, From: 3, To: 4},
		{Insert: true, From: 10, To: 11},
	}); err != nil {
		t.Fatal(err)
	}
	cur = edgeRel(t,
		[2]relation.Value{1, 2}, [2]relation.Value{1, 3},
		[2]relation.Value{3, 4}, [2]relation.Value{10, 11})
	want = testkit.OracleFixpoint("tcv", cur)
	got = gatherSorted(c, "tcv", []string{"src", "dst"})
	if !testkit.BagEqual(got, want) {
		t.Fatalf("after insert: %s", testkit.DiffSample(got, want))
	}

	// Delete-then-reinsert folds away: zero metered rounds.
	before := c.Metrics().Rounds()
	if stats, err = view.ApplyBatch([]EdgeOp{
		{Insert: false, From: 1, To: 2},
		{Insert: true, From: 1, To: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || c.Metrics().Rounds() != before {
		t.Errorf("no-op closure batch cost %d rounds, want 0", stats.Rounds)
	}
}

// TestTransitiveClosureAllocsIndependentOfTuples is the kernel's
// allocation wall: two graphs with the same iteration count, one with
// 10× the chains and so 10× the candidates and closure tuples, must
// allocate about equally. Allocations may grow with rounds and with
// buffer doublings, never once per candidate.
func TestTransitiveClosureAllocsIndependentOfTuples(t *testing.T) {
	chains := func(k int) *relation.Relation {
		e := relation.New("E", "src", "dst")
		for c := 0; c < k; c++ {
			for i := 0; i < 6; i++ {
				e.Append(relation.Value(100*c+i), relation.Value(100*c+i+1))
			}
		}
		return e
	}
	run := func(edges *relation.Relation) (allocs float64, iters int) {
		allocs = testing.AllocsPerRun(3, func() {
			res, err := TransitiveClosure(mpc.NewCluster(4, 1), edges, "tc", 7)
			if err != nil {
				t.Fatal(err)
			}
			iters = res.Iterations
		})
		return allocs, iters
	}
	small, smallIters := run(chains(40))
	large, largeIters := run(chains(400))
	if smallIters != largeIters {
		t.Fatalf("iterations %d vs %d: the graphs must differ only in size", smallIters, largeIters)
	}
	t.Logf("allocs per closure: %.0f at 40 chains, %.0f at 400", small, large)
	if large > 1.5*small {
		t.Fatalf("closure allocations scale with the tuples: %.0f at 40 chains, %.0f at 400", small, large)
	}
}
