package relation

import (
	"math/rand"
	"slices"
	"testing"
)

// binaryPlanOracle is GenericJoin's differential reference: the
// left-deep nested-loop plan projected to varOrder and deduplicated —
// each binding once, columns in varOrder (Dedup also sorts it).
func binaryPlanOracle(varOrder []string, rels ...*Relation) *Relation {
	want := rels[0]
	for _, s := range rels[1:] {
		want = NestedLoopJoin("J", want, s)
	}
	want = want.Project("J", varOrder...)
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

// requireSameBindings is GenericJoin's contract: got holds exactly the
// bindings of want (a set), each exactly once, with the same columns.
// GenericJoin promises no row order, so both sides are compared sorted.
func requireSameBindings(t *testing.T, what string, got, want *Relation) {
	t.Helper()
	if !slices.Equal(got.Attrs(), want.Attrs()) {
		t.Fatalf("%s: columns %v, want %v", what, got.Attrs(), want.Attrs())
	}
	g, w := got.Clone(), want.Clone()
	g.Sort()
	w.Sort()
	requireSameRows(t, what, g, w)
}

func TestGenericJoinTriangle(t *testing.T) {
	edges := [][]Value{{1, 2}, {2, 3}, {3, 1}, {1, 4}}
	r := FromRows("R", []string{"x", "y"}, edges)
	s := FromRows("S", []string{"y", "z"}, edges)
	u := FromRows("T", []string{"z", "x"}, edges)
	got := GenericJoin("Tri", []string{"x", "y", "z"}, r, s, u)
	want := FromRows("W", []string{"x", "y", "z"}, [][]Value{{1, 2, 3}, {2, 3, 1}, {3, 1, 2}})
	requireSameBindings(t, "triangle", got, want)
}

func TestGenericJoinAcyclicChain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := randRel(rng, "R", []string{"a", "b"}, 50, 8).Distinct()
	s := randRel(rng, "S", []string{"b", "c"}, 50, 8).Distinct()
	u := randRel(rng, "U", []string{"c", "d"}, 50, 8).Distinct()
	vars := []string{"a", "b", "c", "d"}
	requireSameBindings(t, "chain", GenericJoin("J", vars, r, s, u), binaryPlanOracle(vars, r, s, u))
}

// Any of the six variable orders yields the same bindings, each with
// its columns in its own order.
func TestGenericJoinVarOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	r := randRel(rng, "R", []string{"x", "y"}, 30, 5).Distinct()
	s := randRel(rng, "S", []string{"y", "z"}, 30, 5).Distinct()
	u := randRel(rng, "T", []string{"z", "x"}, 30, 5).Distinct()
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
		requireSameBindings(t, "order "+ord[0]+ord[1]+ord[2], got, binaryPlanOracle(ord, r, s, u))
		if !got.EqualAsSets(base) {
			t.Fatalf("order %v: different bindings", ord)
		}
	}
}

func TestGenericJoinSingleRelation(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{1, 4}, {3, 2}})
	got := GenericJoin("J", []string{"y", "x"}, r)
	want := FromRows("W", []string{"y", "x"}, [][]Value{{2, 3}, {4, 1}})
	requireSameBindings(t, "single relation, permuted order", got, want)
}

// The kernel's own binding order: the variable in the most inputs
// first, then the one the most inputs have narrowed, ties to the one in
// more inputs and then to the earlier varOrder position.
func TestGenericJoinBindingOrder(t *testing.T) {
	rel := func(a1, a2 string) *Relation { return FromRows(a1+a2, []string{a1, a2}, [][]Value{{1, 1}}) }
	for _, tc := range []struct {
		vars []string
		rels []*Relation
		want []string
	}{
		{[]string{"x", "y", "z", "w"}, []*Relation{rel("x", "y"), rel("y", "z"), rel("z", "w")}, []string{"y", "z", "x", "w"}},
		{[]string{"x", "y", "z"}, []*Relation{rel("x", "y"), rel("y", "z"), rel("z", "x")}, []string{"x", "y", "z"}},
		{[]string{"y", "z", "w", "x"}, []*Relation{rel("x", "y"), rel("x", "z"), rel("x", "w")}, []string{"x", "y", "z", "w"}},
	} {
		a := getArena()
		if a.join.load(tc.vars, tc.rels) || !a.join.plan(len(tc.vars), tc.rels) {
			t.Fatalf("%v: plan found a variable in no input", tc.vars)
		}
		var got []string
		for _, vi := range a.join.order {
			got = append(got, tc.vars[vi])
		}
		putArena(a)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v over %v binds %v, want %v", tc.vars, tc.rels, got, tc.want)
		}
	}
}

func TestGenericJoinEmptyInput(t *testing.T) {
	empty := New("E", "x", "y")
	s := FromRows("S", []string{"y", "z"}, [][]Value{{2, 9}})
	if out := GenericJoin("J", []string{"x", "y", "z"}, empty, s); out.Len() != 0 {
		t.Fatalf("empty input join = %d rows", out.Len())
	}
}

// Long runs of one join key, longer than scanRows, over distinct rows:
// every run must be enumerated fully.
func TestGenericJoinLongEqualRuns(t *testing.T) {
	r := New("R", "x", "y")
	s := New("S", "y", "z")
	for i := Value(0); i < 300; i++ {
		r.Append(i, i%4)
		s.Append(i%5, i)
	}
	got := GenericJoin("J", []string{"x", "y", "z"}, r, s)
	if got.Len() != 4*75*60 {
		t.Fatalf("run join = %d rows, want %d", got.Len(), 4*75*60)
	}
	requireSameBindings(t, "long runs", got, binaryPlanOracle([]string{"x", "y", "z"}, r, s))
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
	requireSameBindings(t, "true nullary atom", GenericJoin("J", vars, yes, r), r)
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
// per binding or per group, so ten times the rows (and ~100 times the
// bindings) costs the same handful of allocations, give or take the
// doublings of the output. The path's probed levels are held to the
// same bound, and so are the heavy join's levels, whose groups of about
// 40 rows each are past scanRows.
func TestGenericJoinAllocsIndependentOfBindings(t *testing.T) {
	three := func(fixture func(n int) (r, s, u *Relation)) func(n int) []*Relation {
		return func(n int) []*Relation {
			r, s, u := fixture(n)
			return []*Relation{r, s, u}
		}
	}
	for _, tc := range []struct {
		name    string
		vars    []string
		fixture func(n int) []*Relation
	}{
		{"triangle", []string{"x", "y", "z"}, three(benchTriangle)},
		{"path3", []string{"x", "y", "z", "w"}, three(benchPath3)},
		{"heavy", []string{"x", "y", "z"}, heavyGroups},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				rels := tc.fixture(n)
				return testing.AllocsPerRun(5, func() {
					GenericJoin("J", tc.vars, rels...)
				})
			}
			small, large := allocs(500), allocs(5000)
			t.Logf("allocs per join: %v at n=500, %v at n=5000", small, large)
			if large > 64 || small > 64 {
				t.Fatalf("GenericJoin allocates %v (n=500) / %v (n=5000) times, want <= 64", small, large)
			}
			// 100x the output is at most 7 more doublings of the output,
			// plus slack for an arena the pool dropped between runs.
			if large-small > 12 {
				t.Fatalf("allocations grow with the input: %v at n=500, %v at n=5000", small, large)
			}
		})
	}
}

// heavyGroups returns R(x,y) ⋈ S(y,z) with n rows in R and n/2 in S,
// S's y over n/80 values, so every S group is about 40 rows, and R's y
// over 100n values, so few R rows meet one. The join iterates R and
// probes S's groups, which a later step iterates.
func heavyGroups(n int) []*Relation {
	rng := rand.New(rand.NewSource(1))
	r := randRel(rng, "R", []string{"x", "y"}, n, 100*n)
	s := New("S", "y", "z")
	for range n / 2 {
		s.AppendRow([]Value{Value(rng.Intn(n / 80)), Value(rng.Intn(n))})
	}
	return []*Relation{r.Distinct(), s.Distinct()}
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

// benchPath3 returns the path fixture of the kernel benchmarks: one
// server's fragments of the path R(x,y), S(y,z), T(z,w) over n-row
// deduplicated relations on n/2 values at p = 4 with shares y = z = 2
// (the serve workload's path3) — the rows whose y, z or both fall in
// one of two buckets.
func benchPath3(n int) (r, s, u *Relation) {
	rng := rand.New(rand.NewSource(1))
	mk := func(name, a1, a2 string, keep func(v1, v2 Value) bool) *Relation {
		rel := randRel(rng, name, []string{a1, a2}, n, n/2)
		rel.Dedup()
		return rel.Select(name, func(row []Value) bool { return keep(row[0], row[1]) })
	}
	even := func(v Value) bool { return v%2 == 0 }
	return mk("R", "x", "y", func(_, y Value) bool { return even(y) }),
		mk("S", "y", "z", func(y, z Value) bool { return even(y) && even(z) }),
		mk("T", "z", "w", func(z, _ Value) bool { return even(z) })
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
			HashJoin("J", HashJoin("J", r, s), u)
		}
	})
}
