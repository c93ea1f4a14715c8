package fractional

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/lp"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

// Slide 51 summary table: τ* for the standard queries.
func TestTauStarStandardQueries(t *testing.T) {
	cases := []struct {
		q   hypergraph.Query
		tau float64
	}{
		{hypergraph.Triangle(), 1.5}, // slide 41
		{hypergraph.TwoWayJoin(), 1}, // slide 41
		{hypergraph.RST(), 2},        // slide 53
		{hypergraph.Path(20), 10},    // slide 62: τ* = 10
		{hypergraph.Difficult(), 2},  // slide 61
		{hypergraph.Cycle(5), 2.5},   // odd cycle: n/2
		{hypergraph.Star(4), 1},      // one center: any two atoms share A0… packing ≤ 1? see below
		{hypergraph.CartesianProduct(), 2},
	}
	for _, tc := range cases {
		ep, err := MaxEdgePacking(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q.Name, err)
		}
		approx(t, ep.Tau, tc.tau, 1e-6, tc.q.Name+" τ*")
	}
}

// Star(n) packing: every atom contains A0, so Σu ≤ 1 from A0's
// constraint; τ* = 1. Verify the constraint really binds.
func TestStarPackingBindsAtCenter(t *testing.T) {
	ep, err := MaxEdgePacking(hypergraph.Star(6))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, u := range ep.Weights {
		sum += u
	}
	approx(t, sum, 1, 1e-6, "Σu at center")
}

// Slide 54 table: ρ* for the standard queries.
func TestRhoStarStandardQueries(t *testing.T) {
	cases := []struct {
		q   hypergraph.Query
		rho float64
	}{
		{hypergraph.Triangle(), 1.5},
		{hypergraph.TwoWayJoin(), 1}, // hmm: cover x,y,z with R,S: need both? R covers x,y; S covers y,z; ρ* = ?
		{hypergraph.RST(), 1},
		{hypergraph.Difficult(), 3}, // slide 61: ψ* = 3 = ρ*
		{hypergraph.CartesianProduct(), 2},
	}
	// TwoWayJoin needs R for x and S for z: ρ* = 2.
	cases[1].rho = 2
	// RST: S(x,y) alone covers both vars: ρ* = 1.
	for _, tc := range cases {
		ec, err := MinEdgeCover(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q.Name, err)
		}
		approx(t, ec.Rho, tc.rho, 1e-6, tc.q.Name+" ρ*")
	}
}

// LP duality (slide 39): min fractional vertex cover = max fractional
// edge packing, for every query we ship.
func TestPackingVertexCoverDuality(t *testing.T) {
	queries := []hypergraph.Query{
		hypergraph.Triangle(), hypergraph.TwoWayJoin(), hypergraph.RST(),
		hypergraph.Path(6), hypergraph.Star(5), hypergraph.Cycle(6),
		hypergraph.Difficult(), hypergraph.SlideTree(),
	}
	for _, q := range queries {
		ep, err := MaxEdgePacking(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		vc, err := MinVertexCover(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		approx(t, vc.Value, ep.Tau, 1e-6, q.Name+" duality τ* = vc*")
	}
}

// For queries whose atoms all have arity ≥ 2 (loopless hypergraphs),
// τ* ≤ ρ*: a packing weights each vertex ≤ 1 while a cover weights each
// ≥ 1. Note this fails with unary atoms: RST has τ* = 2 > ρ* = 1, which
// TestRhoStarStandardQueries pins down separately.
func TestPackingLECover(t *testing.T) {
	queries := []hypergraph.Query{
		hypergraph.Triangle(), hypergraph.TwoWayJoin(),
		hypergraph.Path(9), hypergraph.Star(7), hypergraph.Cycle(7),
		hypergraph.Difficult(),
	}
	for _, q := range queries {
		ep, _ := MaxEdgePacking(q)
		ec, _ := MinEdgeCover(q)
		if ep.Tau > ec.Rho+1e-9 {
			t.Errorf("%s: τ* = %g > ρ* = %g", q.Name, ep.Tau, ec.Rho)
		}
	}
}

func TestAGMBoundTriangle(t *testing.T) {
	q := hypergraph.Triangle()
	sizes := map[string]int64{"R": 1000, "S": 1000, "T": 1000}
	b, err := AGMBound(q, sizes)
	if err != nil {
		t.Fatal(err)
	}
	// AGM for triangle = N^{3/2}.
	approx(t, b, math.Pow(1000, 1.5), 1, "AGM(triangle)")
}

func TestAGMBoundRST(t *testing.T) {
	// RST: ρ* = 1 (S covers everything): AGM = |S|.
	q := hypergraph.RST()
	b, err := AGMBound(q, map[string]int64{"R": 500, "S": 100, "T": 500})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, b, 100, 1e-6, "AGM(RST)")
}

func TestAGMBoundMissingSize(t *testing.T) {
	if _, err := AGMBound(hypergraph.Triangle(), map[string]int64{"R": 10}); err == nil {
		t.Fatal("expected error for missing size")
	}
}

func TestAGMBoundIsUpperBound(t *testing.T) {
	// A concrete instance can't beat AGM: complete bipartite-ish edges.
	q := hypergraph.TwoWayJoin()
	// |R|=|S|=k² (full cross on y=0), OUT = k²·k² / ... build R(x,y):
	// x∈[k²], y=0; S(y,z): y=0, z∈[k²]: OUT = k⁴ = |R|·|S| — matches AGM
	// for two-way join with cover (1,1).
	b, err := AGMBound(q, map[string]int64{"R": 16, "S": 16})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, b, 256, 1e-6, "AGM(join2)")
}

func TestOptimalSharesEqualTriangle(t *testing.T) {
	q := hypergraph.Triangle()
	N := int64(1 << 12)
	p := 64
	sh, err := OptimalShares(q, map[string]int64{"R": N, "S": N, "T": N}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric optimum: each share p^{1/3} = 4, load N/p^{2/3} = N/16.
	for i, s := range sh.Integer {
		if s != 4 {
			t.Fatalf("share %s = %d, want 4 (all %v)", sh.Vars[i], s, sh.Integer)
		}
	}
	approx(t, sh.FractionalLoad, float64(N)/16, 1e-3, "fractional load")
	approx(t, sh.PredictedLoad, float64(N)/16, 1e-3, "integer-share load")
}

func TestOptimalSharesUnequalTriangle(t *testing.T) {
	// Slide 44, row (u_R, u_S, u_T) = (1,0,0): when R(x,y) dominates, the
	// optimal grid degenerates to p_z = 1 (z appears only in the small
	// relations) and the load is |R|/p.
	q := hypergraph.Triangle()
	sizes := map[string]int64{"R": 1 << 20, "S": 100, "T": 100}
	p := 64
	sh, err := OptimalShares(q, sizes, p)
	if err != nil {
		t.Fatal(err)
	}
	zi := -1
	for i, v := range sh.Vars {
		if v == "z" {
			zi = i
		}
	}
	if sh.Integer[zi] != 1 {
		t.Fatalf("z share = %d, want 1 (shares %v for vars %v)", sh.Integer[zi], sh.Integer, sh.Vars)
	}
	approx(t, sh.FractionalLoad, float64(sizes["R"])/float64(p), 1e-2*sh.FractionalLoad, "load = |R|/p")

	// Converse regime (slide 35 geometry): when R is tiny and S, T are
	// huge, all servers go to the z share and the load is the packing
	// bound sqrt(|S||T|)/p.
	sizes2 := map[string]int64{"R": 100, "S": 1 << 20, "T": 1 << 20}
	sh2, err := OptimalShares(q, sizes2, p)
	if err != nil {
		t.Fatal(err)
	}
	if sh2.Integer[zi] != p {
		t.Fatalf("z share = %d, want %d (shares %v)", sh2.Integer[zi], p, sh2.Integer)
	}
	approx(t, sh2.FractionalLoad, math.Sqrt(float64(sizes2["S"])*float64(sizes2["T"]))/float64(p), 1e-2*sh2.FractionalLoad, "load = sqrt(|S||T|)/p")
}

// Duality check (slide 40): the share LP optimum equals the max over
// fractional edge packings of (Π|S_j|^{u_j}/p)^{1/Σu}.
func TestShareLPEqualsMaxPacking(t *testing.T) {
	for _, tc := range []struct {
		q     hypergraph.Query
		sizes map[string]int64
	}{
		{hypergraph.Triangle(), map[string]int64{"R": 1 << 16, "S": 1 << 16, "T": 1 << 16}},
		{hypergraph.Triangle(), map[string]int64{"R": 1 << 10, "S": 1 << 18, "T": 1 << 14}},
		{hypergraph.TwoWayJoin(), map[string]int64{"R": 1 << 15, "S": 1 << 12}},
		{hypergraph.RST(), map[string]int64{"R": 1 << 12, "S": 1 << 16, "T": 1 << 12}},
		// Paths and stars have dominated variables: pinning them to
		// share 1 must leave the optimum where it was.
		{hypergraph.Path(3), map[string]int64{"R1": 1 << 14, "R2": 1 << 10, "R3": 1 << 16}},
		{hypergraph.Path(4), map[string]int64{"R1": 1 << 12, "R2": 1 << 15, "R3": 1 << 11, "R4": 1 << 14}},
		{hypergraph.Star(3), map[string]int64{"R1": 1 << 13, "R2": 1 << 16, "R3": 1 << 10}},
	} {
		p := 64
		sh, err := OptimalShares(tc.q, tc.sizes, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.q.Name, err)
		}
		best := 0.0
		for _, row := range TopPackings(tc.q, tc.sizes, p) {
			if row.Load > best {
				best = row.Load
			}
		}
		if math.Abs(sh.FractionalLoad-best) > 1e-3*best {
			t.Errorf("%s: share LP load %g != max packing load %g", tc.q.Name, sh.FractionalLoad, best)
		}
	}
}

// A variable whose atoms another variable covers gets share 1 (Afrati &
// Ullman's dominance rule): its share would only add replication.
func TestDominatedVariablesGetShareOne(t *testing.T) {
	equal := func(q hypergraph.Query) map[string]int64 {
		sizes := map[string]int64{}
		for _, a := range q.Atoms {
			sizes[a.Name] = 1 << 12
		}
		return sizes
	}
	shares := func(q hypergraph.Query, p int) []int {
		t.Helper()
		sh, err := OptimalShares(q, equal(q), p)
		if err != nil {
			t.Fatalf("%s p=%d: %v", q.Name, p, err)
		}
		return sh.Integer
	}

	// path3 R1(A0,A1), R2(A1,A2), R3(A2,A3): A1 covers A0 and A2 covers A3.
	path3 := hypergraph.Path(3)
	if got := shares(path3, 4); !slices.Equal(got, []int{1, 2, 2, 1}) {
		t.Errorf("path3 p=4: shares %v, want [1 2 2 1]", got)
	}
	for _, p := range []int{8, 64} {
		if got := shares(path3, p); got[0] != 1 || got[3] != 1 {
			t.Errorf("path3 p=%d: shares %v, want A0 = A3 = 1", p, got)
		}
	}

	// star3: the centre A0 covers every leaf.
	if got := shares(hypergraph.Star(3), 64); !slices.Equal(got, []int{64, 1, 1, 1}) {
		t.Errorf("star3 p=64: shares %v, want [64 1 1 1]", got)
	}

	// x and u occur in the same atoms R and T: only x, the first in
	// q.Vars(), keeps a share, and the triangle on x, y, z keeps its grid.
	q := hypergraph.NewQuery("tri-u",
		hypergraph.Atom{Name: "R", Vars: []string{"x", "y", "u"}},
		hypergraph.Atom{Name: "S", Vars: []string{"y", "z"}},
		hypergraph.Atom{Name: "T", Vars: []string{"z", "x", "u"}},
	)
	if got := shares(q, 64); !slices.Equal(got, []int{4, 4, 1, 4}) {
		t.Errorf("%s p=64: shares %v over %v, want [4 4 1 4]", q.Name, got, q.Vars())
	}
}

func TestTopPackingsTriangleTable(t *testing.T) {
	// Slide 42-44 table: for equal sizes the (1/2,1/2,1/2) packing
	// dominates with (|R||S||T|)^{1/3}/p^{2/3}.
	q := hypergraph.Triangle()
	N := int64(1 << 18)
	p := 64
	rows := TopPackings(q, map[string]int64{"R": N, "S": N, "T": N}, p)
	if len(rows) == 0 {
		t.Fatal("no packings")
	}
	top := rows[0]
	approx(t, top.Load, float64(N)/math.Pow(float64(p), 2.0/3.0), 1, "top packing load")
	for _, w := range top.Weights {
		approx(t, w, 0.5, 1e-6, "top packing weight")
	}
}

func TestRoundSharesProductBound(t *testing.T) {
	for _, tc := range []struct {
		frac []float64
		p    int
	}{
		{[]float64{4, 4, 4}, 64},
		{[]float64{7.9, 8.1, 1.0}, 64},
		{[]float64{1.2, 1.2, 1.2, 1.2}, 2},
		{[]float64{63.9}, 64},
		{[]float64{0.5, 0.5}, 4},
	} {
		ints := roundShares(tc.frac, tc.p)
		prod := 1
		for _, s := range ints {
			if s < 1 {
				t.Fatalf("share < 1: %v", ints)
			}
			prod *= s
		}
		if prod > tc.p {
			t.Fatalf("rounded shares %v product %d > p=%d", ints, prod, tc.p)
		}
	}
}

func TestPackingLoadZeroPacking(t *testing.T) {
	q := hypergraph.Triangle()
	if got := PackingLoad(q, map[string]int64{"R": 10, "S": 10, "T": 10}, []float64{0, 0, 0}, 4); got != 0 {
		t.Fatalf("zero packing load = %g", got)
	}
}

// The packing LP's dual must itself be a valid fractional vertex cover
// of the same total weight τ* — a self-certifying optimality witness.
func TestDualCoverCertifiesPacking(t *testing.T) {
	for _, q := range []hypergraph.Query{
		hypergraph.Triangle(), hypergraph.TwoWayJoin(), hypergraph.RST(),
		hypergraph.Path(6), hypergraph.Star(5), hypergraph.Cycle(5),
		hypergraph.Difficult(),
	} {
		ep, err := MaxEdgePacking(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		vars := q.Vars()
		if len(ep.DualCover) != len(vars) {
			t.Fatalf("%s: %d duals for %d vars", q.Name, len(ep.DualCover), len(vars))
		}
		total := 0.0
		for i, w := range ep.DualCover {
			if w < -1e-7 {
				t.Fatalf("%s: negative cover weight %g on %s", q.Name, w, vars[i])
			}
			total += w
		}
		approx(t, total, ep.Tau, 1e-6, q.Name+" dual cover total")
		// Cover feasibility: every atom covered with weight ≥ 1.
		for _, a := range q.Atoms {
			sum := 0.0
			for i, v := range vars {
				if a.HasVar(v) {
					sum += ep.DualCover[i]
				}
			}
			if sum < 1-1e-6 {
				t.Fatalf("%s: atom %s covered only %g", q.Name, a.Name, sum)
			}
		}
	}
}

// FuzzOptimalShares drives the share LP on random hypergraphs of up to
// five variables and four atoms: the integer shares must fit in p, every
// dominated variable must get share 1, rounding can only raise the load
// above the LP optimum, and the result must be deterministic.
func FuzzOptimalShares(f *testing.F) {
	f.Add(uint32(0x30c3), uint64(1), uint16(15))    // path3 at p = 16
	f.Add(uint32(0xc30c3), uint64(77), uint16(255)) // path4 at p = 256
	f.Add(uint32(0xfffff), uint64(0), uint16(0))    // p = 1, every variable in every atom
	f.Fuzz(func(t *testing.T, masks uint32, sizeSeed uint64, pRaw uint16) {
		names := []string{"a", "b", "c", "d", "e"}
		var atoms []hypergraph.Atom
		sizes := map[string]int64{}
		for j := 0; j < 4; j++ {
			mask := masks >> (5 * j) & 0x1f
			var vars []string
			for i, v := range names {
				if mask&(1<<i) != 0 {
					vars = append(vars, v)
				}
			}
			if len(vars) == 0 {
				continue
			}
			name := string(rune('R' + j))
			atoms = append(atoms, hypergraph.Atom{Name: name, Vars: vars})
			sizes[name] = int64(1 + (sizeSeed>>(16*j)&0xffff)*999_999/0xffff)
		}
		if len(atoms) == 0 {
			return
		}
		q := hypergraph.NewQuery("fuzz", atoms...)
		p := 1 + int(pRaw)%256
		sh, err := OptimalShares(q, sizes, p)
		if err != nil {
			t.Fatalf("%v p=%d: %v", q.Atoms, p, err)
		}
		prod := 1
		for i, s := range sh.Integer {
			if s < 1 {
				t.Fatalf("%v p=%d: share %s = %d < 1", q.Atoms, p, sh.Vars[i], s)
			}
			prod *= s
		}
		if prod > p {
			t.Fatalf("%v p=%d: shares %v have product %d > p", q.Atoms, p, sh.Integer, prod)
		}
		// u is dominated when some v occurs in all of u's atoms and in
		// more of them, or in the same ones and earlier in q.Vars().
		atomSet := func(v string) map[string]bool {
			set := map[string]bool{}
			for _, a := range q.Atoms {
				if a.HasVar(v) {
					set[a.Name] = true
				}
			}
			return set
		}
		for i, u := range sh.Vars {
			us := atomSet(u)
			for j, v := range sh.Vars {
				vs := atomSet(v)
				covers := true
				for a := range us {
					covers = covers && vs[a]
				}
				if j != i && covers && (len(vs) > len(us) || j < i) && sh.Integer[i] != 1 {
					t.Fatalf("%v p=%d: %s is dominated by %s but has share %d (shares %v)", q.Atoms, p, u, v, sh.Integer[i], sh.Integer)
				}
			}
		}
		if sh.PredictedLoad < sh.FractionalLoad*(1-1e-9) {
			t.Fatalf("%v p=%d: integer load %g < LP optimum %g", q.Atoms, p, sh.PredictedLoad, sh.FractionalLoad)
		}
		again, err := OptimalShares(q, sizes, p)
		if err != nil || !slices.Equal(again.Integer, sh.Integer) {
			t.Fatalf("%v p=%d: second call gave %v (%v), first %v", q.Atoms, p, again.Integer, err, sh.Integer)
		}
	})
}

// VertexCover holds an optimal fractional vertex cover: one weight per
// variable (in q.Vars() order) with Σ_{v∈e} w_v ≥ 1 for every atom e.
// By LP duality its value equals τ* (slide 39), which the tests check.
type VertexCover struct {
	Vars    []string
	Weights []float64
	Value   float64
}

// MinVertexCover solves the fractional vertex cover LP for q.
func MinVertexCover(q hypergraph.Query) (*VertexCover, error) {
	vars := q.Vars()
	obj := make([]float64, len(vars))
	for i := range obj {
		obj[i] = 1
	}
	p := lp.NewMinimize(obj)
	for _, a := range q.Atoms {
		row := make([]float64, len(vars))
		for i, v := range vars {
			if a.HasVar(v) {
				row[i] = 1
			}
		}
		p.AddConstraint(row, lp.GE, 1)
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("vertex cover LP for %s: %w", q.Name, err)
	}
	return &VertexCover{Vars: vars, Weights: sol.X, Value: sol.Objective}, nil
}
