package relation

import (
	"math/rand"
	"testing"
)

// binaryPlanOracle is GenericJoin's differential reference: the binary
// hash-join plan projected to varOrder and deduplicated, which Dedup
// leaves sorted lexicographically — the exact rows, in the exact order,
// GenericJoin promises.
func binaryPlanOracle(varOrder []string, rels ...*Relation) *Relation {
	want := MultiJoin("J", rels...).Project("J", varOrder...)
	want.Dedup()
	return want
}

// requireSameRows fails unless got and want hold the same rows in the
// same order.
func requireSameRows(t *testing.T, what string, got, want *Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d\n got %v\nwant %v", what, got.Len(), want.Len(), got, want)
	}
	for i := 0; i < got.Len(); i++ {
		if !rowsEqual(got.Row(i), want.Row(i)) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got.Row(i), want.Row(i))
		}
	}
}

func TestGenericJoinTriangle(t *testing.T) {
	edges := [][]Value{{1, 2}, {2, 3}, {3, 1}, {1, 4}}
	r := FromRows("R", []string{"x", "y"}, edges)
	s := FromRows("S", []string{"y", "z"}, edges)
	u := FromRows("T", []string{"z", "x"}, edges)
	got := GenericJoin("Tri", []string{"x", "y", "z"}, r, s, u)
	want := FromRows("W", []string{"x", "y", "z"}, [][]Value{{1, 2, 3}, {2, 3, 1}, {3, 1, 2}})
	requireSameRows(t, "triangle", got, want)
}

// TestGenericJoinMatchesBinaryPlans cross-validates the kernel on
// random triangles (bag inputs), row for row and in order.
func TestGenericJoinMatchesBinaryPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vars := []string{"x", "y", "z"}
	for trial := 0; trial < 40; trial++ {
		dom := 2 + rng.Intn(7)
		r := randRel(rng, "R", []string{"x", "y"}, rng.Intn(35), dom)
		s := randRel(rng, "S", []string{"y", "z"}, rng.Intn(35), dom)
		u := randRel(rng, "T", []string{"z", "x"}, rng.Intn(35), dom)
		requireSameRows(t, "random triangle", GenericJoin("J", vars, r, s, u), binaryPlanOracle(vars, r, s, u))
	}
}

func TestGenericJoinAcyclicChain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := randRel(rng, "R", []string{"a", "b"}, 50, 8)
	s := randRel(rng, "S", []string{"b", "c"}, 50, 8)
	u := randRel(rng, "U", []string{"c", "d"}, 50, 8)
	vars := []string{"a", "b", "c", "d"}
	requireSameRows(t, "chain", GenericJoin("J", vars, r, s, u), binaryPlanOracle(vars, r, s, u))
}

// Any of the six variable orders yields the same bindings, each sorted
// by its own order.
func TestGenericJoinVarOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	r := randRel(rng, "R", []string{"x", "y"}, 30, 5)
	s := randRel(rng, "S", []string{"y", "z"}, 30, 5)
	u := randRel(rng, "T", []string{"z", "x"}, 30, 5)
	orders := [][]string{
		{"x", "y", "z"}, {"x", "z", "y"}, {"y", "x", "z"},
		{"y", "z", "x"}, {"z", "x", "y"}, {"z", "y", "x"},
	}
	base := GenericJoin("J", orders[0], r, s, u)
	if base.Len() == 0 {
		t.Fatal("fixture joins to nothing")
	}
	for _, ord := range orders {
		got := GenericJoin("J", ord, r, s, u)
		requireSameRows(t, "order "+ord[0]+ord[1]+ord[2], got, binaryPlanOracle(ord, r, s, u))
		if !got.EqualAsSets(base) {
			t.Fatalf("order %v: different bindings", ord)
		}
	}
}

func TestGenericJoinSingleRelation(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{1, 4}, {3, 2}, {1, 4}})
	got := GenericJoin("J", []string{"y", "x"}, r)
	want := FromRows("W", []string{"y", "x"}, [][]Value{{2, 3}, {4, 1}})
	requireSameRows(t, "single relation, permuted order", got, want)
}

func TestGenericJoinEmptyInput(t *testing.T) {
	empty := New("E", "x", "y")
	s := FromRows("S", []string{"y", "z"}, [][]Value{{2, 9}})
	if out := GenericJoin("J", []string{"x", "y", "z"}, empty, s); out.Len() != 0 {
		t.Fatalf("empty input join = %d rows", out.Len())
	}
}

// Long runs of one join key: every run must be enumerated fully, and
// rows repeated in the input must not repeat in the output.
func TestGenericJoinLongEqualRuns(t *testing.T) {
	r := New("R", "x", "y")
	s := New("S", "y", "z")
	for i := Value(0); i < 300; i++ {
		r.Append(i%20, 7)
		s.Append(7, i%30)
	}
	got := GenericJoin("J", []string{"x", "y", "z"}, r, s)
	if got.Len() != 20*30 {
		t.Fatalf("run join = %d rows, want 600", got.Len())
	}
	requireSameRows(t, "long runs", got, binaryPlanOracle([]string{"x", "y", "z"}, r, s))
}

// A nullary atom is a boolean: false (no tuple) empties the join, true
// (any number of copies of the empty tuple) changes nothing.
func TestGenericJoinNullaryInputs(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{1, 2}, {3, 4}})
	vars := []string{"x", "y"}
	no := New("E")
	if got := GenericJoin("J", vars, r, no); got.Len() != 0 {
		t.Fatalf("join with a false nullary atom = %d rows, want 0", got.Len())
	}
	yes := New("E")
	yes.Append()
	yes.Append()
	requireSameRows(t, "true nullary atom", GenericJoin("J", vars, yes, r), r)
	if got := GenericJoin("J", nil, yes, yes); got.Len() != 1 {
		t.Fatalf("join of true nullary atoms = %d rows, want the one empty binding", got.Len())
	}
}

func TestGenericJoinPanics(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{1, 2}})
	mustPanic(t, "dup var", func() { GenericJoin("J", []string{"x", "y", "x"}, r) })
	mustPanic(t, "missing var", func() { GenericJoin("J", []string{"x"}, r) })
	mustPanic(t, "no rels", func() { GenericJoin("J", []string{"x"}) })
}

// TestGenericJoinAllocsIndependentOfBindings pins the property that
// took the kernel out of the allocation profile: nothing is allocated
// per binding, so ten times the rows (and ~100 times the bindings)
// costs the same handful of allocations, give or take the doublings
// of the output's append.
func TestGenericJoinAllocsIndependentOfBindings(t *testing.T) {
	allocs := func(n int) float64 {
		r, s, u := benchTriangle(n)
		return testing.AllocsPerRun(5, func() {
			GenericJoin("J", []string{"x", "y", "z"}, r, s, u)
		})
	}
	small, large := allocs(500), allocs(5000)
	t.Logf("allocs per join: %v at n=500, %v at n=5000", small, large)
	if large > 64 || small > 64 {
		t.Fatalf("GenericJoin allocates %v (n=500) / %v (n=5000) times, want <= 64", small, large)
	}
	// 100x the output is at most 7 more doublings of the append, plus
	// slack for an arena the pool dropped between runs.
	if large-small > 12 {
		t.Fatalf("allocations grow with the input: %v at n=500, %v at n=5000", small, large)
	}
}

// benchTriangle returns the triangle fixture of the kernel benchmarks:
// three deduplicated n-row edge relations over n/7.5 vertices.
func benchTriangle(n int) (r, s, u *Relation) {
	rng := rand.New(rand.NewSource(1))
	mk := func(name, a1, a2 string) *Relation {
		rel := randRel(rng, name, []string{a1, a2}, n, n*2/15)
		rel.Dedup()
		return rel
	}
	return mk("R", "x", "y"), mk("S", "y", "z"), mk("T", "z", "x")
}

func BenchmarkLocalJoinTriangle(b *testing.B) {
	r, s, u := benchTriangle(3000)
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GenericJoin("J", []string{"x", "y", "z"}, r, s, u)
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MultiJoin("J", r, s, u)
		}
	})
}
