package join2

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
	"mpcquery/internal/workload"
)

// expected computes the reference join result locally.
func expected(r, s *relation.Relation) *relation.Relation {
	return relation.HashJoin("want", r, s)
}

func checkJoin(t *testing.T, c *mpc.Cluster, outName string, r, s *relation.Relation) {
	t.Helper()
	got := c.Gather(outName)
	want := expected(r, s)
	if got.Len() != want.Len() {
		t.Fatalf("join size = %d, want %d", got.Len(), want.Len())
	}
	if !got.EqualAsSets(want) {
		t.Fatalf("join result differs from reference")
	}
}

func uniformInputs(n int, seed int64) (*relation.Relation, *relation.Relation) {
	r := workload.Uniform("R", []string{"x", "y"}, n, n/2, seed)
	s := workload.Uniform("S", []string{"y", "z"}, n, n/2, seed+1)
	return r, s
}

func TestHashJoinCorrect(t *testing.T) {
	r, s := uniformInputs(1000, 1)
	c := mpc.NewCluster(8, 1)
	res := HashJoin(c, r, s, "out", 42)
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	checkJoin(t, c, "out", r, s)
}

func TestHashJoinLoadNoSkew(t *testing.T) {
	// Skew-free data: load near IN/p (slide 24).
	const n, p = 4000, 8
	r := workload.Matching("R", []string{"x", "y"}, n)
	s := workload.Matching("S", []string{"y", "z"}, n)
	c := mpc.NewCluster(p, 1)
	HashJoin(c, r, s, "out", 42)
	load := c.Metrics().MaxLoad()
	ideal := int64(2 * n / p)
	if load > ideal*3/2 {
		t.Fatalf("no-skew hash join load %d > 1.5× ideal %d", load, ideal)
	}
	checkJoin(t, c, "out", r, s)
}

func TestHashJoinLoadUnderExtremeSkew(t *testing.T) {
	// All tuples share one join value: the hash join sends everything to
	// one server, L = IN (slide 27's pathology).
	const n, p = 500, 8
	r := workload.PlantHeavy("R", "y", "x", 0, 0, []relation.Value{7}, []int{n})
	s := workload.PlantHeavy("S", "y", "z", 0, 0, []relation.Value{7}, []int{n})
	c := mpc.NewCluster(p, 1)
	HashJoin(c, r.Project("R", "x", "y"), s, "out", 42)
	if load := c.Metrics().MaxLoad(); load < int64(2*n) {
		t.Fatalf("extreme-skew hash join load = %d, want IN = %d", load, 2*n)
	}
}

func TestBroadcastJoinCorrect(t *testing.T) {
	small := workload.Uniform("R", []string{"x", "y"}, 50, 40, 3)
	big := workload.Uniform("S", []string{"y", "z"}, 2000, 40, 4)
	c := mpc.NewCluster(8, 1)
	res := BroadcastJoin(c, small, big, "out")
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	checkJoin(t, c, "out", small, big)
	// Load = |R| per server (the big side never moves).
	if load := c.Metrics().MaxLoad(); load != int64(small.Len()) {
		t.Fatalf("broadcast load = %d, want |R| = %d", load, small.Len())
	}
}

func TestGridShares(t *testing.T) {
	for _, tc := range []struct {
		nr, ns, p      int
		wantP1, wantP2 int
	}{
		{100, 100, 16, 4, 4},
		{100, 100, 4, 2, 2},
		{1, 10000, 16, 1, 16},
		{10000, 1, 16, 16, 1},
		{0, 5, 8, 1, 8},
	} {
		p1, p2 := GridShares(tc.nr, tc.ns, tc.p)
		if p1 != tc.wantP1 || p2 != tc.wantP2 {
			t.Errorf("GridShares(%d,%d,%d) = %d×%d, want %d×%d",
				tc.nr, tc.ns, tc.p, p1, p2, tc.wantP1, tc.wantP2)
		}
		if p1*p2 > tc.p {
			t.Errorf("grid %d×%d exceeds p=%d", p1, p2, tc.p)
		}
	}
}

func TestCartesianProductCorrect(t *testing.T) {
	r := workload.Uniform("R", []string{"x"}, 60, 1000, 5)
	s := workload.Uniform("S", []string{"z"}, 40, 1000, 6)
	c := mpc.NewCluster(16, 1)
	res := CartesianProduct(c, r, s, "out")
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	got := c.Gather("out")
	if got.Len() != r.Len()*s.Len() {
		t.Fatalf("product size = %d, want %d", got.Len(), r.Len()*s.Len())
	}
	want := relation.CrossProduct("want", r, s)
	if !got.EqualAsSets(want) {
		t.Fatal("product contents wrong")
	}
}

func TestCartesianLoadNearOptimal(t *testing.T) {
	// Slide 28: L = 2·sqrt(|R||S|/p). Allow 2× for randomness.
	const nr, ns, p = 1600, 1600, 16
	r := workload.Uniform("R", []string{"x"}, nr, 1<<30, 7)
	s := workload.Uniform("S", []string{"z"}, ns, 1<<30, 8)
	c := mpc.NewCluster(p, 1)
	CartesianProduct(c, r, s, "out")
	load := float64(c.Metrics().MaxLoad())
	optimal := 800.0 // 2*sqrt(1600*1600/16)
	if load > 2*optimal {
		t.Fatalf("cartesian load %g > 2× optimal %g", load, optimal)
	}
}

func TestCartesianPanicsOnSharedAttrs(t *testing.T) {
	r := workload.Uniform("R", []string{"x"}, 5, 10, 1)
	c := mpc.NewCluster(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CartesianProduct(c, r, r.Rename("S"), "out")
}

func TestSkewJoinCorrectUniform(t *testing.T) {
	r, s := uniformInputs(800, 9)
	c := mpc.NewCluster(8, 1)
	res := SkewJoin(c, r, s, "out", 42)
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	checkJoin(t, c, "out", r, s)
}

func TestSkewJoinCorrectExtremeSkew(t *testing.T) {
	// One value holds everything: output is the full cross product.
	const n, p = 400, 8
	r := workload.PlantHeavy("R", "y", "x", 20, 1000, []relation.Value{7}, []int{n})
	rr := r.Project("R", "x", "y")
	s := workload.PlantHeavy("S", "y", "z", 20, 2000, []relation.Value{7}, []int{n})
	c := mpc.NewCluster(p, 1)
	SkewJoin(c, rr, s, "out", 42)
	checkJoin(t, c, "out", rr, s)
}

func TestSkewJoinBeatsHashJoinUnderSkew(t *testing.T) {
	// Extreme skew: hash join load = IN; skew join spreads the heavy
	// value's Cartesian product over the cluster.
	const n, p = 1024, 16
	r := workload.PlantHeavy("R", "y", "x", 0, 0, []relation.Value{7}, []int{n}).Project("R", "x", "y")
	s := workload.PlantHeavy("S", "y", "z", 0, 0, []relation.Value{7}, []int{n})

	ch := mpc.NewCluster(p, 1)
	HashJoin(ch, r, s, "out", 42)
	hashLoad := ch.Metrics().MaxLoad()

	cs := mpc.NewCluster(p, 1)
	SkewJoin(cs, r, s, "out", 42)
	skewLoad := cs.Metrics().MaxLoad()

	if skewLoad*2 >= hashLoad {
		t.Fatalf("skew join load %d should be well below hash join load %d", skewLoad, hashLoad)
	}
	checkJoin(t, cs, "out", r, s)
}

func TestSkewJoinMultipleHeavyHitters(t *testing.T) {
	const p = 8
	r := workload.PlantHeavy("R", "y", "x", 100, 5000, []relation.Value{1, 2, 3}, []int{200, 150, 100}).Project("R", "x", "y")
	s := workload.PlantHeavy("S", "y", "z", 100, 5000, []relation.Value{2, 3, 4}, []int{180, 90, 250})
	c := mpc.NewCluster(p, 1)
	SkewJoin(c, r, s, "out", 42)
	checkJoin(t, c, "out", r, s)
}

// TestHeavyHittersOf: the skew threshold the algorithms use — degree ≥
// (|r|+|s|)/p in either input — finds the planted value.
func TestHeavyHittersOf(t *testing.T) {
	r := workload.PlantHeavy("R", "y", "x", 10, 100, []relation.Value{5}, []int{50}).Project("R", "x", "y")
	s := workload.Uniform("S", []string{"y", "z"}, 20, 10, 3)
	hh := stats.JoinHeavyHitters(stats.DegreesOf(r, "y"), stats.DegreesOf(s, "y"), (r.Len()+s.Len())/4)
	found := false
	for _, v := range hh {
		if v == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("heavy hitter 5 not found in %v", hh)
	}
}

func TestSortJoinCorrectUniform(t *testing.T) {
	r, s := uniformInputs(600, 11)
	c := mpc.NewCluster(8, 1)
	res := SortJoin(c, r, s, "out", 42)
	if res.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4", res.Rounds)
	}
	checkJoin(t, c, "out", r, s)
}

func TestSortJoinCorrectSkewed(t *testing.T) {
	const n, p = 600, 8
	r := workload.PlantHeavy("R", "y", "x", 100, 9000, []relation.Value{7}, []int{n}).Project("R", "x", "y")
	s := workload.PlantHeavy("S", "y", "z", 100, 9000, []relation.Value{7}, []int{n})
	c := mpc.NewCluster(p, 1)
	SortJoin(c, r, s, "out", 42)
	checkJoin(t, c, "out", r, s)
}

func TestSortJoinEmptySide(t *testing.T) {
	r := relation.New("R", "x", "y")
	s := workload.Uniform("S", []string{"y", "z"}, 100, 50, 2)
	c := mpc.NewCluster(4, 1)
	SortJoin(c, r, s, "out", 42)
	if c.TotalLen("out") != 0 {
		t.Fatal("join with empty side should be empty")
	}
}

func TestSkewJoinEmptyInputs(t *testing.T) {
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	c := mpc.NewCluster(4, 1)
	SkewJoin(c, r, s, "out", 42)
	if c.TotalLen("out") != 0 {
		t.Fatal("empty join should be empty")
	}
}

func TestJoinAttrValidation(t *testing.T) {
	r := relation.New("R", "x", "y")
	bad := relation.New("S", "a", "b")
	c := mpc.NewCluster(2, 1)
	mustPanic(t, "no shared attr", func() { HashJoin(c, r, bad, "out", 1) })
	mustPanic(t, "same name", func() { HashJoin(c, r, relation.New("R", "y", "z"), "out", 1) })
	// The skew-aware algorithms still require exactly one join attribute
	// (the tutorial's model); HashJoin itself accepts composite keys.
	two := relation.New("S", "x", "y")
	mustPanic(t, "skew join two shared attrs", func() { SkewJoin(c, r, two, "out", 1) })
	mustPanic(t, "sort join two shared attrs", func() { SortJoin(c, r, two, "out", 1) })
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

func TestAllJoinsAgree(t *testing.T) {
	// Property: all four algorithms produce the identical result set on
	// the same moderately skewed input.
	r := workload.Zipf("R", []string{"y", "x"}, 500, 100, 1.5, 21).Project("R", "x", "y")
	s := workload.Zipf("S", []string{"y", "z"}, 500, 100, 1.5, 22)
	want := expected(r, s)
	for name, run := range map[string]func(c *mpc.Cluster) string{
		"hash":      func(c *mpc.Cluster) string { HashJoin(c, r, s, "out", 9); return "out" },
		"broadcast": func(c *mpc.Cluster) string { BroadcastJoin(c, r, s, "out"); return "out" },
		"skew":      func(c *mpc.Cluster) string { SkewJoin(c, r, s, "out", 9); return "out" },
		"sort":      func(c *mpc.Cluster) string { SortJoin(c, r, s, "out", 9); return "out" },
	} {
		c := mpc.NewCluster(8, 1)
		out := run(c)
		got := c.Gather(out)
		if got.Len() != want.Len() || !got.EqualAsSets(want) {
			t.Errorf("%s join: got %d tuples, want %d (or contents differ)", name, got.Len(), want.Len())
		}
	}
}

// HashJoin supports composite (multi-attribute) join keys.
func TestHashJoinCompositeKey(t *testing.T) {
	r := workload.Uniform("R", []string{"x", "y1", "y2"}, 600, 12, 31)
	s := workload.Uniform("S", []string{"y1", "y2", "z"}, 600, 12, 32)
	c := mpc.NewCluster(8, 1)
	HashJoin(c, r, s, "out", 42)
	checkJoin(t, c, "out", r, s)
	// Co-location: tuples with equal (y1,y2) must meet; verified by the
	// result equality above, but also check no key is split.
	got := c.Gather("out")
	if got.Arity() != 4 {
		t.Fatalf("arity = %d, want x,y1,y2,z", got.Arity())
	}
}

func TestHashJoinNoSharedAttrsPanics(t *testing.T) {
	r := relation.New("R", "a")
	s := relation.New("S", "b")
	c := mpc.NewCluster(2, 1)
	mustPanic(t, "no shared", func() { HashJoin(c, r, s, "out", 1) })
}
