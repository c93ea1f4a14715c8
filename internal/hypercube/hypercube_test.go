package hypercube

import (
	"math"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

// triangleRels builds triangle-query inputs from a random graph.
func triangleRels(n, m int, seed int64) map[string]*relation.Relation {
	r, s, t := workload.TriangleInput(n, m, seed)
	return map[string]*relation.Relation{"R": r, "S": s, "T": t}
}

// expectedTriangle computes the reference answer locally.
func expectedTriangle(rels map[string]*relation.Relation) *relation.Relation {
	r := rels["R"].Rename("R")
	s := rels["S"].Rename("S")
	t := rels["T"].Rename("T")
	return relation.GenericJoin("want", []string{"x", "y", "z"}, r, s, t)
}

func TestPlanWithSharesValidation(t *testing.T) {
	q := hypergraph.Triangle()
	mustPanic(t, "wrong share count", func() { PlanWithShares(q, []int{2, 2}, 1) })
	mustPanic(t, "zero share", func() { PlanWithShares(q, []int{0, 2, 2}, 1) })
	pl := PlanWithShares(q, []int{2, 3, 4}, 1)
	if pl.GridSize() != 24 {
		t.Fatalf("grid size = %d", pl.GridSize())
	}
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

func TestRouteReplication(t *testing.T) {
	// Triangle, shares (2,2,2): an R(x,y) tuple must reach exactly 2
	// servers (the free z dimension), and its coordinates must agree on
	// the hashed x and y dims.
	q := hypergraph.Triangle()
	pl := PlanWithShares(q, []int{2, 2, 2}, 7)
	targets := routeCells(pl.Route(q.Atom("R")), []relation.Value{5, 9})
	if len(targets) != 2 {
		t.Fatalf("R tuple delivered to %d servers, want 2", len(targets))
	}
	// Decode coordinates (strides: x=4, y=2, z=1).
	x0, y0 := targets[0]/4, (targets[0]/2)%2
	x1, y1 := targets[1]/4, (targets[1]/2)%2
	if x0 != x1 || y0 != y1 {
		t.Fatalf("fixed dims differ between copies: %v", targets)
	}
	z0, z1 := targets[0]%2, targets[1]%2
	if z0 == z1 {
		t.Fatalf("free dim not enumerated: %v", targets)
	}
	// A fully-bound output tuple addresses exactly one server.
	full := hypergraph.Atom{Name: "full", Vars: []string{"x", "y", "z"}}
	if one := routeCells(pl.Route(full), []relation.Value{5, 9, 1}); len(one) != 1 {
		t.Fatalf("full tuple delivered to %d servers", len(one))
	}
}

func TestHyperCubeTriangleCorrect(t *testing.T) {
	rels := triangleRels(40, 300, 3)
	want := expectedTriangle(rels)
	c := mpc.NewCluster(8, 1)
	res, err := Run(c, hypergraph.Triangle(), rels, "out", 42, LocalGeneric)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (the headline claim)", res.Rounds)
	}
	got := c.Gather("out")
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("triangles: got %d, want %d", got.Len(), want.Len())
	}
}

func TestHyperCubeNoDuplicates(t *testing.T) {
	rels := triangleRels(30, 200, 9)
	c := mpc.NewCluster(27, 1)
	if _, err := Run(c, hypergraph.Triangle(), rels, "out", 42, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	got := c.Gather("out")
	dedup := got.Clone()
	dedup.Dedup()
	if got.Len() != dedup.Len() {
		t.Fatalf("output has duplicates: %d vs %d distinct", got.Len(), dedup.Len())
	}
}

func TestHyperCubeLocalAlgsAgree(t *testing.T) {
	rels := triangleRels(40, 250, 5)
	want := expectedTriangle(rels)
	for _, alg := range []LocalAlg{LocalGeneric, LocalBinary} {
		c := mpc.NewCluster(8, 1)
		if _, err := Run(c, hypergraph.Triangle(), rels, "out", 42, alg); err != nil {
			t.Fatal(err)
		}
		got := c.Gather("out")
		if !got.EqualAsSets(want) {
			t.Fatalf("alg %d disagrees with reference", alg)
		}
	}
}

func TestHyperCubeSharesAreCubeRootForTriangle(t *testing.T) {
	q := hypergraph.Triangle()
	sizes := map[string]int64{"R": 1000, "S": 1000, "T": 1000}
	pl, err := NewPlan(q, sizes, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range pl.Shares {
		if s != 4 {
			t.Fatalf("share[%d] = %d, want p^{1/3} = 4 (all %v)", i, s, pl.Shares)
		}
	}
}

func TestHyperCubeLoadMatchesTheory(t *testing.T) {
	// Slide 36: load O(N/p^{2/3}) w.h.p. on skew-free input. Use a near-
	// regular graph and p = 8 (shares 2×2×2): expect ~3·N/4 words...
	// per-atom expectation: each server receives N/(share product over
	// atom vars) = N/4 tuples per atom, 3 atoms → 3N/4 total.
	const n, m, p = 2000, 4000, 8
	rels := triangleRels(n, m, 11)
	c := mpc.NewCluster(p, 1)
	if _, err := Run(c, hypergraph.Triangle(), rels, "out", 42, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	load := float64(c.Metrics().MaxLoad())
	expect := 3.0 * m / 4.0
	if load > 1.6*expect {
		t.Fatalf("load %g far above expectation %g", load, expect)
	}
	if load < 0.5*expect {
		t.Fatalf("load %g suspiciously below expectation %g (metering broken?)", load, expect)
	}
}

func TestHyperCubePathQuery(t *testing.T) {
	// Acyclic multiway query through the same API.
	rels := map[string]*relation.Relation{}
	for i, r := range workload.PathInput(3, 50) {
		_ = i
		rels[r.Name()] = r
	}
	q := hypergraph.Path(3)
	c := mpc.NewCluster(8, 1)
	if _, err := Run(c, q, rels, "out", 42, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	got := c.Gather("out")
	if got.Len() != 50 {
		t.Fatalf("path join = %d, want 50", got.Len())
	}
}

func TestHyperCubeCartesianProduct(t *testing.T) {
	// Product(x,z) = R(x) ⋈ S(z): HyperCube's grid must reproduce the
	// slide-28 rectangle behaviour.
	q := hypergraph.CartesianProduct()
	rels := map[string]*relation.Relation{
		"R": workload.Uniform("R", []string{"x"}, 40, 1<<30, 1),
		"S": workload.Uniform("S", []string{"z"}, 60, 1<<30, 2),
	}
	c := mpc.NewCluster(16, 1)
	if _, err := Run(c, q, rels, "out", 42, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	got := c.Gather("out")
	if got.Len() != 40*60 {
		t.Fatalf("product = %d, want %d", got.Len(), 2400)
	}
}

func TestSkewHCCorrectOnSkewedTriangle(t *testing.T) {
	// Plant a heavy hub vertex: many edges share vertex 0.
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	u := relation.New("T", "z", "x")
	addEdge := func(a, b relation.Value) { r.Append(a, b); s.Append(a, b); u.Append(a, b) }
	// Hub: vertex 0 connects to 1..80; plus a ring of triangles.
	for i := relation.Value(1); i <= 80; i++ {
		addEdge(0, i)
		addEdge(i, 0)
	}
	for i := relation.Value(100); i < 130; i += 3 {
		addEdge(i, i+1)
		addEdge(i+1, i+2)
		addEdge(i+2, i)
	}
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	want := expectedTriangle(rels)
	c := mpc.NewCluster(8, 1)
	res, err := RunSkewHC(c, hypergraph.Triangle(), rels, "out", 42, 0, LocalGeneric)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	got := c.Gather("out")
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("skewHC triangles: got %d, want %d", got.Len(), want.Len())
	}
}

func TestSkewHCNoDuplicatesAcrossPatterns(t *testing.T) {
	// Duplicates across pattern sub-joins are the classic SkewHC bug;
	// build data where heavy and light values interact densely.
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	u := relation.New("T", "z", "x")
	for i := relation.Value(0); i < 40; i++ {
		r.Append(0, i%5)
		s.Append(i%5, i%7)
		u.Append(i%7, 0)
	}
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	want := expectedTriangle(rels)
	want.Dedup()
	c := mpc.NewCluster(8, 1)
	if _, err := RunSkewHC(c, hypergraph.Triangle(), rels, "out", 42, 4, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	got := c.Gather("out")
	gotD := got.Clone()
	gotD.Dedup()
	if got.Len() != gotD.Len() {
		t.Fatalf("SkewHC produced duplicates: %d vs %d distinct", got.Len(), gotD.Len())
	}
	// R,S,T here are bags with duplicates? No — values repeat but tuples
	// may repeat; compare sets.
	if !gotD.EqualAsSets(want) {
		t.Fatal("SkewHC result set differs from reference")
	}
}

func TestSkewHCMatchesPlainOnUniformData(t *testing.T) {
	rels := triangleRels(60, 400, 13)
	want := expectedTriangle(rels)
	c := mpc.NewCluster(8, 1)
	if _, err := RunSkewHC(c, hypergraph.Triangle(), rels, "out", 42, 0, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	got := c.Gather("out")
	if !got.EqualAsSets(want) {
		t.Fatal("SkewHC wrong on uniform data")
	}
}

func TestSkewHCBeatsPlainHCUnderSkew(t *testing.T) {
	// The HyperCube skew pathology (slide 46): a heavy value of x
	// confines all of R and T to the x = h(0) slab of the cube, whose
	// p^{2/3} servers absorb everything. SkewHC detects x = 0 as heavy,
	// gives x share 1 in that pattern, and re-spreads R by y and T by z.
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	u := relation.New("T", "z", "x")
	const k = 2048
	for i := relation.Value(0); i < k; i++ {
		r.Append(0, i)         // x always the heavy 0
		u.Append(i, 0)         // same for T's x
		s.Append(i, (i*7+3)%k) // pseudo-random permutation pairs
	}
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	want := expectedTriangle(rels)

	cPlain := mpc.NewCluster(64, 1)
	if _, err := Run(cPlain, hypergraph.Triangle(), rels, "out", 42, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	plainLoad := cPlain.Metrics().MaxLoad()
	if !cPlain.Gather("out").EqualAsSets(want) {
		t.Fatal("plain HC wrong")
	}

	cSkew := mpc.NewCluster(64, 1)
	if _, err := RunSkewHC(cSkew, hypergraph.Triangle(), rels, "out", 42, 0, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	skewLoad := cSkew.Metrics().MaxLoadOfRound("skewhc:shuffle")
	if !cSkew.Gather("out").EqualAsSets(want) {
		t.Fatal("SkewHC wrong")
	}
	if skewLoad >= plainLoad {
		t.Fatalf("SkewHC shuffle load %d should beat plain HC load %d under skew", skewLoad, plainLoad)
	}
}

func TestSkewHCPatternShares(t *testing.T) {
	// The slide-48/49/50 table: pattern residual τ* values for the
	// triangle. Find the corresponding patterns in a SkewHC run.
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	u := relation.New("T", "z", "x")
	for i := relation.Value(0); i < 30; i++ {
		r.Append(i, 0)
		s.Append(0, i)
		u.Append(i, i)
	}
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	c := mpc.NewCluster(64, 1)
	res, err := RunSkewHC(c, hypergraph.Triangle(), rels, "out", 42, 0, LocalGeneric)
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range res.Patterns {
		nHeavy := 0
		for _, h := range pat.Heavy {
			if h {
				nHeavy++
			}
		}
		switch nHeavy {
		case 0:
			if math.Abs(pat.TauRes-1.5) > 1e-6 {
				t.Errorf("light pattern τ* = %g, want 3/2", pat.TauRes)
			}
		case 1:
			if math.Abs(pat.TauRes-2) > 1e-6 {
				t.Errorf("1-heavy pattern τ* = %g, want 2", pat.TauRes)
			}
		case 2:
			if math.Abs(pat.TauRes-1) > 1e-6 {
				t.Errorf("2-heavy pattern τ* = %g, want 1", pat.TauRes)
			}
		}
		// Product of shares within p.
		if pat.Plan.GridSize() > 64 {
			t.Errorf("pattern grid %v exceeds p", pat.Plan.Shares)
		}
	}
}

func TestPrepareValidation(t *testing.T) {
	q := hypergraph.Triangle()
	c := mpc.NewCluster(4, 1)
	mustPanic(t, "missing relation", func() {
		_, _ = Run(c, q, map[string]*relation.Relation{}, "out", 1, LocalGeneric)
	})
	mustPanic(t, "arity mismatch", func() {
		_, _ = Run(c, q, map[string]*relation.Relation{
			"R": relation.New("R", "a"),
			"S": relation.New("S", "a", "b"),
			"T": relation.New("T", "a", "b"),
		}, "out", 1, LocalGeneric)
	})
}
