package hypercube

import (
	"math"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// hubTriangle builds the skewed input of slide 59: vertex 0 is a hot z
// value, with enough light structure around it that both code paths
// (heavy blocks and light HyperCube) produce output.
func hubTriangle(k int) map[string]*relation.Relation {
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	u := relation.New("T", "z", "x")
	// Heavy z = 0: S(y, 0) for many y, T(0, x) for many x, and R(x, y)
	// connecting them so triangles (x, y, 0) exist.
	for i := relation.Value(1); i <= relation.Value(k); i++ {
		s.Append(i, 0)
		u.Append(0, i)
		r.Append(i, i) // triangle (i, i, 0) for every i
	}
	// Light triangles on a separate vertex range.
	base := relation.Value(10 * k)
	for i := relation.Value(0); i < 30; i += 3 {
		r.Append(base+i, base+i+1)
		s.Append(base+i+1, base+i+2)
		u.Append(base+i+2, base+i)
	}
	return map[string]*relation.Relation{"R": r, "S": s, "T": u}
}

func TestHeavyLightTriangleCorrect(t *testing.T) {
	rels := hubTriangle(300)
	want := expectedTriangle(rels)
	if want.Len() < 310 {
		t.Fatalf("test input should have ≥ 310 triangles, got %d", want.Len())
	}
	c := mpc.NewCluster(64, 1)
	res, err := HeavyLightTriangle(c, rels, "out", 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4 (2 stats + 2 compute)", res.Rounds)
	}
	got := c.Gather("out")
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("HL+semijoins: got %d triangles, want %d", got.Len(), want.Len())
	}
}

func TestHeavyLightTriangleNoSkew(t *testing.T) {
	// Without heavy values it degenerates to plain HyperCube and must
	// still be exactly right.
	rels := triangleRels(50, 300, 21)
	want := expectedTriangle(rels)
	c := mpc.NewCluster(27, 1)
	if _, err := HeavyLightTriangle(c, rels, "out", 42); err != nil {
		t.Fatal(err)
	}
	got := c.Gather("out")
	if !got.EqualAsSets(want) {
		t.Fatalf("no-skew HL wrong: got %d, want %d", got.Len(), want.Len())
	}
}

func TestHeavyLightNoDuplicates(t *testing.T) {
	rels := hubTriangle(200)
	c := mpc.NewCluster(27, 1)
	if _, err := HeavyLightTriangle(c, rels, "out", 42); err != nil {
		t.Fatal(err)
	}
	got := c.Gather("out")
	d := got.Clone()
	d.Dedup()
	if got.Len() != d.Len() {
		t.Fatalf("duplicates: %d vs %d distinct", got.Len(), d.Len())
	}
}

func TestHeavyLightLoadBeatsHashOnHotZ(t *testing.T) {
	// The point of the algorithm (slide 59): load stays O(IN/p^{2/3})
	// under z skew. Compare to plain HyperCube whose S and T collapse
	// into the z-slab.
	const k = 3000
	rels := hubTriangle(k)
	p := 64
	cp := mpc.NewCluster(p, 1)
	if _, err := Run(cp, hypergraph.Triangle(), rels, "out", 42, LocalGeneric); err != nil {
		t.Fatal(err)
	}
	plain := cp.Metrics().MaxLoad()
	chl := mpc.NewCluster(p, 1)
	if _, err := HeavyLightTriangle(chl, rels, "out", 42); err != nil {
		t.Fatal(err)
	}
	hl := chl.Metrics().MaxLoadOfRound("hl:shuffle")
	if hl >= plain {
		t.Fatalf("HL shuffle load %d should beat plain HC %d under z skew", hl, plain)
	}
	in := float64(3*k + 60)
	bound := 6 * in / math.Pow(float64(p), 2.0/3.0)
	if float64(hl) > bound {
		t.Fatalf("HL load %d exceeds 6·IN/p^{2/3} = %.0f", hl, bound)
	}
}

// TestHeavyZCount: the threshold IN/p^{1/3} on z's degree across S and
// T singles out the hub and nothing on uniform data.
func TestHeavyZCount(t *testing.T) {
	heavyZ := func(rels map[string]*relation.Relation, p int) int {
		in := rels["R"].Len() + rels["S"].Len() + rels["T"].Len()
		return len(HeavyByVar(hypergraph.Triangle(), rels, int(float64(in)/math.Cbrt(float64(p))))["z"])
	}
	if got := heavyZ(hubTriangle(1000), 64); got != 1 {
		t.Fatalf("heavy z count = %d, want 1 (the hub)", got)
	}
	if got := heavyZ(triangleRels(100, 400, 5), 8); got != 0 {
		t.Fatalf("uniform data should have no heavy z, got %d", got)
	}
}

// TestHeavyLightBlockSizeIsExactRoot: at p = 125 a heavy block is
// ⌊125^{2/3}⌋ = 25 servers, so a single heavy value's S_b tuples, spread
// by h(y), reach exactly 25 servers. A float p^{2/3} truncates to 24.
func TestHeavyLightBlockSizeIsExactRoot(t *testing.T) {
	for _, tc := range []struct{ n, k, want int }{
		{1, 3, 1}, {7, 3, 1}, {8, 3, 2}, {125 * 125, 3, 25}, {216 * 216, 3, 36},
		{512 * 512, 3, 64}, {1000 * 1000, 3, 100}, {999 * 999, 3, 99}, {124, 3, 4}, {125, 3, 5},
	} {
		if got := floorRoot(tc.n, tc.k); got != tc.want {
			t.Errorf("floorRoot(%d, %d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
	c := mpc.NewCluster(125, 1)
	rec := trace.NewRecorder()
	c.SetTracer(rec)
	if _, err := HeavyLightTriangle(c, hubTriangle(2000), "out", 42); err != nil {
		t.Fatal(err)
	}
	servers := map[int]bool{}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindRecv && ev.Name == "out:Sb" {
			servers[ev.Server] = true
		}
	}
	if len(servers) != 25 {
		t.Fatalf("the heavy value's S_b tuples reached %d servers, want 25", len(servers))
	}
}
