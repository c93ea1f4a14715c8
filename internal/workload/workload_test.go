package workload

import (
	"fmt"
	"testing"

	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
)

// heavy lists the values of attr in r of degree ≥ t, with their degrees.
func heavy(r *relation.Relation, attr string, t int) []stats.Hitter {
	return stats.Heavy([]stats.Column{{Rel: r, Col: r.MustCol(attr)}}, t, stats.InAny)
}

func TestMatching(t *testing.T) {
	r := Matching("R", []string{"x", "y"}, 5)
	if r.Len() != 5 {
		t.Fatalf("len = %d", r.Len())
	}
	for i := 0; i < 5; i++ {
		row := r.Row(i)
		if row[0] != relation.Value(i) || row[1] != relation.Value(i) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
	// Every value has degree exactly 1.
	if len(heavy(r, "x", 2)) != 0 {
		t.Fatal("matching relation has skew")
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform("R", []string{"x", "y"}, 100, 50, 7)
	b := Uniform("R", []string{"x", "y"}, 100, 50, 7)
	if !a.EqualAsSets(b) || a.Len() != 100 {
		t.Fatal("uniform not deterministic")
	}
	c := Uniform("R", []string{"x", "y"}, 100, 50, 8)
	if c.EqualAsSets(a) {
		t.Fatal("different seeds gave identical data")
	}
}

func TestUniformDegree(t *testing.T) {
	r := UniformDegree("R", "y", "p", 100, 5)
	if r.Len() != 100 {
		t.Fatalf("len = %d", r.Len())
	}
	d := heavy(r, "y", 1)
	if len(d) != 20 {
		t.Fatalf("distinct keys = %d, want 20", len(d))
	}
	for _, h := range d {
		if h.Deg[0] != 5 {
			t.Fatalf("key %d degree = %d, want 5", h.Value, h.Deg[0])
		}
	}
	// Payloads unique.
	if len(heavy(r, "p", 2)) != 0 {
		t.Fatal("payloads not unique")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-divisible n")
		}
	}()
	UniformDegree("R", "y", "p", 10, 3)
}

func TestZipfSkewed(t *testing.T) {
	r := Zipf("R", []string{"y", "p"}, 10000, 1000, 1.5, 3)
	if r.Len() != 10000 {
		t.Fatalf("len = %d", r.Len())
	}
	// Zipf concentrates mass: max degree far above uniform expectation.
	if len(heavy(r, "y", 1000)) == 0 {
		t.Fatal("no zipf value reaches degree 1000; expected strong skew")
	}
}

// TestZipfSamplerRangeAndDeterminism pins the sampler invariants the
// fuzz target also enforces.
func TestZipfSamplerRangeAndDeterminism(t *testing.T) {
	a := NewZipfSampler(1.2, 64, 11)
	b := NewZipfSampler(1.2, 64, 11)
	for i := 0; i < 10_000; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatalf("sample %d: %d != %d with identical seeds", i, va, vb)
		}
		if va < 0 || va >= 64 {
			t.Fatalf("sample %d = %d outside [0, 64)", i, va)
		}
	}
	// Exponents ≤ 1 are clamped, not rejected — Zipf's too (it used to
	// crash on the stdlib's nil *rand.Zipf).
	if v := NewZipfSampler(0.5, 8, 1).Next(); v < 0 || v >= 8 {
		t.Fatalf("clamped sampler out of range: %d", v)
	}
	if r := Zipf("R", []string{"y", "p"}, 100, 8, 1, 1); r.Len() != 100 {
		t.Fatalf("Zipf at s = 1: %d rows, want 100", r.Len())
	}
}

func TestPlantHeavy(t *testing.T) {
	r := PlantHeavy("R", "y", "p", 10, 1000, []relation.Value{7, 8}, []int{20, 5})
	if r.Len() != 35 {
		t.Fatalf("len = %d", r.Len())
	}
	if d := fmt.Sprint(heavy(r, "y", 2)); d != "[{7 [20]} {8 [5]}]" {
		t.Fatalf("heavy degrees = %s", d)
	}
	if len(heavy(r, "p", 2)) != 0 {
		t.Fatal("payloads not unique")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched heavy spec")
		}
	}()
	PlantHeavy("R", "y", "p", 1, 0, []relation.Value{1}, []int{1, 2})
}

func TestRandomGraph(t *testing.T) {
	g := RandomGraph("E", "a", "b", 50, 200, 11)
	if g.Len() != 200 {
		t.Fatalf("edges = %d", g.Len())
	}
	// Distinct, no self-loops.
	seen := map[[2]relation.Value]bool{}
	for i := 0; i < g.Len(); i++ {
		row := g.Row(i)
		if row[0] == row[1] {
			t.Fatal("self loop")
		}
		e := [2]relation.Value{row[0], row[1]}
		if seen[e] {
			t.Fatal("duplicate edge")
		}
		seen[e] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for impossible m")
		}
	}()
	RandomGraph("E", "a", "b", 3, 100, 1)
}

func TestTriangleInputConsistent(t *testing.T) {
	r, s, u := TriangleInput(30, 100, 5)
	if r.Len() != 100 || s.Len() != 100 || u.Len() != 100 {
		t.Fatal("sizes differ")
	}
	// R and S hold the same pairs under different schemas.
	if !r.Project("p", "x", "y").EqualAsSets(s.Project("p", "y", "z").Rename("p")) {
		// Projections rename attrs; compare raw pair sets instead.
		pairsR := map[[2]relation.Value]bool{}
		for i := 0; i < r.Len(); i++ {
			pairsR[[2]relation.Value{r.Row(i)[0], r.Row(i)[1]}] = true
		}
		for i := 0; i < s.Len(); i++ {
			if !pairsR[[2]relation.Value{s.Row(i)[0], s.Row(i)[1]}] {
				t.Fatal("R and S differ as edge sets")
			}
		}
	}
}

func TestTriangleWithPlantedTriangles(t *testing.T) {
	r, s, u := TriangleWithPlantedTriangles(20, 50, 4, 9)
	out := relation.GenericJoin("Tri", []string{"x", "y", "z"}, r, s, u)
	if out.Len() < 4 {
		t.Fatalf("only %d triangles; planted 4", out.Len())
	}
}

func TestPathInput(t *testing.T) {
	rels := PathInput(4, 10)
	if len(rels) != 4 {
		t.Fatal("wrong count")
	}
	out := rels[0]
	for _, r := range rels[1:] {
		out = relation.HashJoin("J", out, r)
	}
	if out.Len() != 10 {
		t.Fatalf("path join out = %d, want 10 (matchings never grow)", out.Len())
	}
}

func TestSlideTreeInput(t *testing.T) {
	rels := SlideTreeInput(50, 3)
	if len(rels) != 5 {
		t.Fatal("want 5 relations")
	}
	for name, r := range rels {
		if r.Len() != 50 {
			t.Fatalf("%s size %d", name, r.Len())
		}
	}
	if rels["R3"].Col("A1") < 0 || rels["R3"].Col("A3") < 0 {
		t.Fatal("R3 schema wrong")
	}
}

func TestPowerLawGraph(t *testing.T) {
	g := PowerLawGraph("E", "a", "b", 2000, 20000, 7)
	if g.Len() != 20000 {
		t.Fatalf("edges = %d", g.Len())
	}
	// Degree distribution must be heavy-tailed: the max degree should
	// far exceed the uniform expectation 2m/n = 20.
	if hubs := stats.Heavy([]stats.Column{{Rel: g, Col: 0}, {Rel: g, Col: 1}}, 200, stats.Summed); len(hubs) == 0 {
		t.Fatal("no vertex has degree 200; preferential attachment should produce hubs")
	}
	// No self loops, and the edges are distinct: a set, as every input.
	for i := 0; i < g.Len(); i++ {
		if g.Row(i)[0] == g.Row(i)[1] {
			t.Fatal("self loop")
		}
	}
	if d := g.Distinct(); d.Len() != g.Len() {
		t.Fatalf("%d of %d edges are repeats", g.Len()-d.Len(), g.Len())
	}
	// A graph with every possible edge still terminates.
	if full := PowerLawGraph("E", "a", "b", 5, 20, 7); full.Distinct().Len() != 20 {
		t.Fatalf("complete graph on 5 vertices has %d distinct edges, want 20", full.Distinct().Len())
	}
	// Deterministic.
	g2 := PowerLawGraph("E", "a", "b", 2000, 20000, 7)
	if !g.EqualAsSets(g2) {
		t.Fatal("not deterministic")
	}
	t.Run("too many edges", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("m > n(n-1) did not panic")
			}
		}()
		PowerLawGraph("E", "a", "b", 5, 21, 7)
	})
}
