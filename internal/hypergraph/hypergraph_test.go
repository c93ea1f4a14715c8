package hypergraph

import (
	"testing"
)

func TestQueryBasics(t *testing.T) {
	q := Triangle()
	vars := q.Vars()
	if len(vars) != 3 || vars[0] != "x" || vars[1] != "y" || vars[2] != "z" {
		t.Fatalf("triangle vars = %v", vars)
	}
	if got := q.Atom("S").Vars[0]; got != "y" {
		t.Fatalf("atom S first var = %s", got)
	}
	if q.AtomIndex("T") != 2 || q.AtomIndex("Z") != -1 {
		t.Fatalf("AtomIndex broken")
	}
}

func TestQueryValidation(t *testing.T) {
	mustPanic(t, "dup atom", func() {
		NewQuery("q", Atom{Name: "R", Vars: []string{"x"}}, Atom{Name: "R", Vars: []string{"y"}})
	})
	mustPanic(t, "repeated var", func() {
		NewQuery("q", Atom{Name: "R", Vars: []string{"x", "x"}})
	})
	mustPanic(t, "empty atom", func() {
		NewQuery("q", Atom{Name: "R"})
	})
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

func TestResidual(t *testing.T) {
	q := Triangle()
	// z heavy: T(z,x) -> T(x), S(y,z) -> S(y)  (slide 49).
	res, dropped := q.Residual(map[string]bool{"z": true})
	if len(dropped) != 0 {
		t.Fatalf("dropped = %v, want none", dropped)
	}
	if len(res.Atoms) != 3 {
		t.Fatalf("residual atoms = %d", len(res.Atoms))
	}
	if s := res.Atom("S"); len(s.Vars) != 1 || s.Vars[0] != "y" {
		t.Fatalf("residual S = %v", s)
	}
	// y and z heavy: R(x), T(x); S dropped (slide 50).
	res2, dropped2 := q.Residual(map[string]bool{"y": true, "z": true})
	if len(dropped2) != 1 || dropped2[0] != "S" {
		t.Fatalf("dropped = %v, want [S]", dropped2)
	}
	if len(res2.Atoms) != 2 {
		t.Fatalf("residual atoms = %d, want 2", len(res2.Atoms))
	}
}

func TestVarSubsets(t *testing.T) {
	q := TwoWayJoin() // vars x, y, z
	subs := q.VarSubsets()
	if len(subs) != 8 {
		t.Fatalf("subsets = %d, want 8", len(subs))
	}
	if len(subs[0]) != 0 || len(subs[7]) != 3 {
		t.Fatalf("subset ordering wrong")
	}
}

func TestGYOAcyclic(t *testing.T) {
	for _, tc := range []struct {
		q    Query
		want bool
	}{
		{Triangle(), false},
		{TwoWayJoin(), true},
		{RST(), true},
		{Path(5), true},
		{Star(4), true},
		{SlideTree(), true},
		{Cycle(4), false},
		{Cycle(5), false},
		{Difficult(), true},
		{CartesianProduct(), true},
	} {
		got, jt := IsAcyclic(tc.q)
		if got != tc.want {
			t.Errorf("%s: acyclic = %v, want %v", tc.q.Name, got, tc.want)
		}
		if got && jt == nil {
			t.Errorf("%s: acyclic but no join tree", tc.q.Name)
		}
	}
}

func TestJoinTreeStructure(t *testing.T) {
	q := SlideTree()
	ok, jt := IsAcyclic(q)
	if !ok {
		t.Fatal("slide tree should be acyclic")
	}
	// The tree must span all atoms with exactly one root.
	roots := 0
	for _, p := range jt.Parent {
		if p < 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("roots = %d", roots)
	}
	// Parent must share a variable with child (join-tree property for
	// connected queries).
	for i, p := range jt.Parent {
		if p < 0 {
			continue
		}
		shared := false
		for _, v := range q.Atoms[i].Vars {
			if q.Atoms[p].HasVar(v) {
				shared = true
			}
		}
		if !shared {
			t.Errorf("atom %s shares no var with parent %s", q.Atoms[i].Name, q.Atoms[p].Name)
		}
	}
	post := jt.PostOrder()
	if len(post) != 5 || post[len(post)-1] != jt.Root {
		t.Fatalf("postorder = %v, root %d", post, jt.Root)
	}
	pre := jt.PreOrder()
	if len(pre) != 5 || pre[0] != jt.Root {
		t.Fatalf("preorder = %v", pre)
	}
	levels := jt.Levels()
	total := 0
	for _, l := range levels {
		total += len(l)
	}
	if total != 5 {
		t.Fatalf("levels cover %d atoms", total)
	}
	if d := len(levels) - 1; d < 1 || d > 3 {
		t.Fatalf("slide tree depth = %d", d)
	}
}

// TestJoinTreeRunningIntersection: for every variable, atoms containing
// it must form a connected subtree of the join tree.
func TestJoinTreeRunningIntersection(t *testing.T) {
	for _, q := range []Query{TwoWayJoin(), RST(), Path(7), Star(5), SlideTree(), Difficult()} {
		ok, jt := IsAcyclic(q)
		if !ok {
			t.Fatalf("%s should be acyclic", q.Name)
		}
		// One bag per atom, λ = that atom: the join tree as a width-1 GHD.
		bags := make([]Bag, len(q.Atoms))
		for i, a := range q.Atoms {
			bags[i] = Bag{Vars: a.Vars, Atoms: []int{i}}
		}
		g := NewGHD(q, bags, jt.Parent)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: join tree violates GHD conditions: %v", q.Name, err)
		}
		if g.Width() != 1 {
			t.Errorf("%s: join-tree GHD width = %d, want 1", q.Name, g.Width())
		}
	}
}

func TestPathChainGHD(t *testing.T) {
	g := PathChainGHD(6)
	if g.Width() != 1 {
		t.Fatalf("chain width = %d, want 1", g.Width())
	}
	if g.Depth() != 5 {
		t.Fatalf("chain depth = %d, want 5", g.Depth())
	}
}

func TestPathFlatGHD(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6, 8, 9} {
		g := PathFlatGHD(n)
		if g.Depth() != 1 {
			t.Errorf("flat path-%d depth = %d, want 1", n, g.Depth())
		}
		w := g.Width()
		if w < (n+1)/2 || w > n/2+1 {
			t.Errorf("flat path-%d width = %d, want ≈ n/2", n, w)
		}
	}
}

func TestPathBalancedGHD(t *testing.T) {
	for _, n := range []int{3, 4, 6, 8, 12, 16, 20, 31} {
		g := PathBalancedGHD(n)
		if w := g.Width(); w > 3 {
			t.Errorf("balanced path-%d width = %d, want ≤ 3", n, w)
		}
		// Depth should be logarithmic: ≤ 2·log2(n)+2.
		maxD := 2
		for k := 1; k < n; k *= 2 {
			maxD += 2
		}
		if d := g.Depth(); d > maxD {
			t.Errorf("balanced path-%d depth = %d, want ≤ %d", n, d, maxD)
		}
	}
}

func TestGHDWidthDepthTradeoffMonotone(t *testing.T) {
	// The three path decompositions realize the slide-95 trade-off:
	// chain (w=1, d=n-1), balanced (w=3, d≈log n), flat (w≈n/2, d=1).
	n := 16
	chain, bal, flat := PathChainGHD(n), PathBalancedGHD(n), PathFlatGHD(n)
	if !(chain.Width() < bal.Width() || bal.Width() <= flat.Width()) {
		t.Fatalf("width ordering violated: %d %d %d", chain.Width(), bal.Width(), flat.Width())
	}
	if !(flat.Depth() < bal.Depth() && bal.Depth() < chain.Depth()) {
		t.Fatalf("depth ordering violated: %d %d %d", flat.Depth(), bal.Depth(), chain.Depth())
	}
}

func TestStandardQueryShapes(t *testing.T) {
	if got := len(Path(7).Atoms); got != 7 {
		t.Fatalf("path7 atoms = %d", got)
	}
	if got := len(Star(7).Atoms); got != 7 {
		t.Fatalf("star7 atoms = %d", got)
	}
	if got := len(Cycle(7).Atoms); got != 7 {
		t.Fatalf("cycle7 atoms = %d", got)
	}
	if got := len(Cycle(7).Vars()); got != 7 {
		t.Fatalf("cycle7 vars = %d", got)
	}
	mustPanic(t, "path 0", func() { Path(0) })
	mustPanic(t, "cycle 2", func() { Cycle(2) })
}

func TestInvalidGHDPanics(t *testing.T) {
	q := TwoWayJoin()
	// A GHD missing atom S entirely must be rejected.
	mustPanic(t, "missing atom", func() {
		NewGHD(q, []Bag{{Vars: []string{"x", "y"}, Atoms: []int{0}}}, []int{-1})
	})
	// Running-intersection violation: y appears in bags 0 and 2 but not
	// in the middle bag 1 on the path between them.
	q3 := Path(3) // R1(A0,A1) R2(A1,A2) R3(A2,A3)
	mustPanic(t, "running intersection", func() {
		NewGHD(q3, []Bag{
			{Vars: []string{"A0", "A1"}, Atoms: []int{0}},
			{Vars: []string{"A2", "A3"}, Atoms: []int{2}},
			{Vars: []string{"A1", "A2"}, Atoms: []int{1}},
		}, []int{-1, 0, 1})
	})
}

func TestRandomAcyclicAlwaysAcyclic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		q := RandomAcyclic(1+int(seed%7), 2+int(seed%3), seed)
		ok, jt := IsAcyclic(q)
		if !ok {
			t.Fatalf("seed %d: %s is cyclic", seed, q)
		}
		if jt == nil && len(q.Atoms) > 1 {
			t.Fatalf("seed %d: no join tree", seed)
		}
		// Deterministic per seed.
		q2 := RandomAcyclic(1+int(seed%7), 2+int(seed%3), seed)
		if q.String() != q2.String() {
			t.Fatalf("seed %d: not deterministic", seed)
		}
	}
	mustPanic(t, "bad params", func() { RandomAcyclic(0, 2, 1) })
}
