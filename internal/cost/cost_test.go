package cost

import (
	"math"
	"slices"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

func TestHashLoadTailBound(t *testing.T) {
	// Larger degree d weakens the bound (slide 25: exponent gains a 1/d).
	b1 := HashLoadTailBound(1e6, 100, 1, 0.3)
	b2 := HashLoadTailBound(1e6, 100, 100, 0.3)
	if b1 >= b2 {
		t.Fatalf("bound should grow with d: d=1 %g, d=100 %g", b1, b2)
	}
	// No-skew bound at practical scale is tiny.
	if b1 > 1e-10 {
		t.Fatalf("no-skew bound = %g, expected tiny", b1)
	}
}

func TestSkewThresholdDegreeSlide26(t *testing.T) {
	// Slide 26 annotations: IN = 100 billion, ≤30% over expected load
	// with 95% probability. p = 100 → d ≈ 4,000,000; p = 1000 → d ≈ 10,000.
	in := 100e9
	d50 := SkewThresholdDegree(in, 50, 0.3, 0.05)
	d100 := SkewThresholdDegree(in, 100, 0.3, 0.05)
	d1000 := SkewThresholdDegree(in, 1000, 0.3, 0.05)
	// The figure's curve starts near 10 million at p = 50.
	if d50 < 7e6 || d50 > 11e6 {
		t.Fatalf("d(p=50) = %g, figure starts near 10 million", d50)
	}
	if d100 < 3.5e6 || d100 > 4.5e6 {
		t.Fatalf("d(p=100) = %g, slide says ≈ 4,000,000", d100)
	}
	// Note: the slide also annotates p=1000 with d = 10,000, which is
	// inconsistent with the slide's own printed bound (which gives
	// ≈ 3·10⁵); we reproduce the formula, not the stray annotation.
	// Threshold decreases with p: more servers expose skew sooner.
	if d1000 >= d100 {
		t.Fatal("threshold should fall as p grows")
	}
	// Inversion consistency: at the threshold degree the tail bound
	// equals failProb.
	b := HashLoadTailBound(in, 100, d100, 0.3)
	approx(t, b, 0.05, 1e-9, "bound at threshold")
}

func TestCartesianLoad(t *testing.T) {
	// Slide 28: L = 2·sqrt(|R||S|/p).
	approx(t, CartesianLoad(1e4, 1e4, 4), 2*math.Sqrt(1e8/4), 1e-9, "cartesian load")
}

func TestSkewJoinLoad(t *testing.T) {
	got := SkewJoinLoad(1000, 1e6, 100)
	approx(t, got, math.Sqrt(1e4)+10, 1e-9, "skew join load")
}

func TestHyperCubeLoadEqualSizes(t *testing.T) {
	l, err := HyperCubeLoadEqualSizes(hypergraph.Triangle(), 1e6, 64)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, l, 1e6/16, 1e-6, "triangle load N/p^{2/3}")
	l2, err := HyperCubeLoadEqualSizes(hypergraph.TwoWayJoin(), 1e6, 64)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, l2, 1e6/64, 1e-6, "join2 load N/p")
}

func TestHyperCubeLoadGeneral(t *testing.T) {
	sizes := map[string]int64{"R": 1 << 20, "S": 100, "T": 100}
	l, err := HyperCubeLoad(hypergraph.Triangle(), sizes, 64)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, l, float64(sizes["R"])/64, 1, "dominated by |R|/p")
}

// Slide 51/53 summary table: ψ* values.
func TestPsiStarTable(t *testing.T) {
	cases := []struct {
		q   hypergraph.Query
		psi float64
	}{
		{hypergraph.Triangle(), 2},   // slide 51
		{hypergraph.TwoWayJoin(), 2}, // slide 51
		{hypergraph.RST(), 2},        // slide 53
		{hypergraph.Difficult(), 3},  // slide 61
		{hypergraph.CartesianProduct(), 2},
	}
	for _, tc := range cases {
		psi, err := PsiStar(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q.Name, err)
		}
		approx(t, psi, tc.psi, 1e-6, tc.q.Name+" ψ*")
	}
}

// ψ* ≥ τ* always (the empty subset is included in the max).
func TestPsiStarAtLeastTau(t *testing.T) {
	for _, q := range []hypergraph.Query{
		hypergraph.Triangle(), hypergraph.RST(), hypergraph.Path(5),
		hypergraph.Star(4), hypergraph.Cycle(5), hypergraph.Difficult(),
	} {
		psi, err := PsiStar(q)
		if err != nil {
			t.Fatal(err)
		}
		tau, err := SpeedupExponent(q) // 1/τ*
		if err != nil {
			t.Fatal(err)
		}
		if psi < 1/tau-1e-9 {
			t.Errorf("%s: ψ* = %g < τ* = %g", q.Name, psi, 1/tau)
		}
	}
}

func TestSkewedOneRoundLoad(t *testing.T) {
	// Triangle with skew: IN/p^{1/2} (slide 51).
	l, err := SkewedOneRoundLoad(hypergraph.Triangle(), 1e6, 64)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, l, 1e6/8, 1e-6, "skewed triangle load")
}

func TestTriangleOneRoundLB(t *testing.T) {
	approx(t, TriangleOneRoundLB(1e6, 64), 1e6/16, 1e-9, "1-round LB")
}

func TestMultiRoundLoadLB(t *testing.T) {
	// Triangle ρ* = 3/2; more rounds weaken the per-round bound.
	l1, err := MultiRoundLoadLB(hypergraph.Triangle(), 1e6, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	l3, err := MultiRoundLoadLB(hypergraph.Triangle(), 1e6, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l3 >= l1 {
		t.Fatal("more rounds should lower the per-round LB")
	}
	approx(t, l1, 1e6/math.Pow(64, 2.0/3.0), 1e-6, "r=1 LB")
}

func TestSortBounds(t *testing.T) {
	// log_L N rounds.
	approx(t, SortRoundsLB(1e6, 100), 3, 1e-9, "sort rounds LB")
	approx(t, SortCommLB(1e6, 100), 3e6, 1e-6, "sort comm LB")
	// Degenerate load clamps to base 2.
	if SortRoundsLB(1024, 1) != 10 {
		t.Fatalf("clamped base wrong: %g", SortRoundsLB(1024, 1))
	}
}

func TestMatMulFormulas(t *testing.T) {
	n, L := 256.0, 4096.0
	approx(t, MatMulRectComm(n, L), 4*n*n*n*n/L, 1e-6, "rect comm")
	approx(t, MatMulSquareComm(n, L), n*n*n/64, 1e-6, "square comm")
	approx(t, MatMulCommLB(n, L), n*n*n/64, 1e-6, "comm LB")
	// Square-block beats rectangle-block when L << n²·(L/n²)... compare:
	if MatMulSquareComm(n, L) >= MatMulRectComm(n, L) {
		t.Fatal("square-block should communicate less at small L")
	}
	// Rounds LB: join term dominates for small p.
	r := MatMulRoundsLB(n, L, 4)
	if r < MatMulRoundsLB(n, L, 1024) {
		t.Fatal("rounds LB should shrink with p")
	}
}

func TestGYMCrossoverOut(t *testing.T) {
	// Triangle τ* = 3/2: crossover at OUT = p^{1/3}·IN.
	approx(t, GYMCrossoverOut(1e6, 64, 1.5), 4e6, 1e-3, "crossover")
}

func TestGHDRoundsLoad(t *testing.T) {
	r, l := GHDRoundsLoad(1000, 500, 2, 3, 10)
	approx(t, r, 3, 0, "rounds")
	approx(t, l, (1e6+500)/10, 1e-6, "load")
}

func TestSpeedupExponent(t *testing.T) {
	// Path-20: τ* = 10 ⇒ exponent 1/10 (slide 62).
	e, err := SpeedupExponent(hypergraph.Path(20))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, e, 0.1, 1e-9, "path-20 speedup exponent")
}

func TestExpectedHashLoad(t *testing.T) {
	approx(t, ExpectedHashLoad(1000, 8), 125, 0, "IN/p")
}

func TestProfileTriangle(t *testing.T) {
	pr, err := NewProfile(hypergraph.Triangle(),
		map[string]int64{"R": 10000, "S": 10000, "T": 10000}, 64)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, pr.Tau, 1.5, 1e-6, "τ*")
	approx(t, pr.Psi, 2, 1e-6, "ψ*")
	approx(t, pr.Rho, 1.5, 1e-6, "ρ*")
	if pr.Acyclic {
		t.Fatal("triangle marked acyclic")
	}
	if pr.IN != 30000 {
		t.Fatalf("IN = %d", pr.IN)
	}
	approx(t, pr.OneRoundNoSkew, 30000/16.0, 1e-6, "no-skew load")
	approx(t, pr.OneRoundSkew, 30000/8.0, 1e-6, "skew load")
	if pr.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestProfileAcyclicFlag(t *testing.T) {
	pr, err := NewProfile(hypergraph.Path(3),
		map[string]int64{"R1": 100, "R2": 100, "R3": 100}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Acyclic {
		t.Fatal("path marked cyclic")
	}
}

// TestBindAtoms pins RunFunc's input convention: each atom gets its
// relation relabelled to the atom's name and variables, sharing the
// input's storage, and a missing relation or wrong arity panics.
func TestBindAtoms(t *testing.T) {
	q := hypergraph.TwoWayJoin()
	e := relation.FromRows("E", []string{"a", "b"}, [][]relation.Value{{1, 2}, {2, 3}})
	bound := BindAtoms(q, map[string]*relation.Relation{"R": e, "S": e})
	for _, a := range q.Atoms {
		r := bound[a.Name]
		if r.Name() != a.Name || !slices.Equal(r.Attrs(), a.Vars) || &r.Row(0)[0] != &e.Row(0)[0] {
			t.Fatalf("atom %s bound to %s%v (shares storage: %v)", a.Name, r.Name(), r.Attrs(), &r.Row(0)[0] == &e.Row(0)[0])
		}
	}
	if e.Name() != "E" || e.Attrs()[0] != "a" {
		t.Fatalf("binding relabelled the input itself: %s%v", e.Name(), e.Attrs())
	}
	for what, rels := range map[string]map[string]*relation.Relation{
		"missing relation": {"R": e},
		"arity mismatch":   {"R": e, "S": relation.New("S", "y")},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: BindAtoms did not panic", what)
				}
			}()
			BindAtoms(q, rels)
		}()
	}
}
