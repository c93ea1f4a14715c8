package testkit

import (
	"math/rand"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
)

// TestOracleJoinHandChecked pins the oracle on a tiny instance small
// enough to verify by hand: R = {(1,2),(2,3)}, S = {(2,5),(3,7),(3,7)}.
// R(x,y) ⋈ S(y,z) = {(1,2,5),(2,3,7)} under set semantics.
func TestOracleJoinHandChecked(t *testing.T) {
	q := hypergraph.TwoWayJoin()
	rels := map[string]*relation.Relation{
		"R": relation.FromRows("R", []string{"x", "y"}, [][]relation.Value{{1, 2}, {2, 3}}),
		"S": relation.FromRows("S", []string{"y", "z"}, [][]relation.Value{{2, 5}, {3, 7}, {3, 7}}),
	}
	got := OracleJoin(q, rels)
	want := relation.FromRows("join2", []string{"x", "y", "z"}, [][]relation.Value{{1, 2, 5}, {2, 3, 7}})
	if !BagEqual(got, want) {
		t.Fatalf("oracle wrong: %s", DiffSample(got, want))
	}
}

// TestOracleJoinEmptyAtom pins that any empty input relation empties
// the whole join.
func TestOracleJoinEmptyAtom(t *testing.T) {
	q := hypergraph.Triangle()
	rels := map[string]*relation.Relation{
		"R": relation.FromRows("R", []string{"x", "y"}, [][]relation.Value{{1, 2}}),
		"S": relation.New("S", "y", "z"),
		"T": relation.FromRows("T", []string{"z", "x"}, [][]relation.Value{{3, 1}}),
	}
	if got := OracleJoin(q, rels); got.Len() != 0 {
		t.Fatalf("join with empty atom returned %d tuples", got.Len())
	}
}

// TestOracleJoinVsGenericJoin differentially checks the nested-loop
// oracle against the worst-case-optimal generic join — two independent
// implementations that must agree on every random instance and query
// shape (chains, stars, cycles, triangles).
func TestOracleJoinVsGenericJoin(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		q := RandomQuery(seed)
		skew := AllSkews[seed%int64(len(AllSkews))]
		rels := GenInstance(q, skew, GenConfig{Tuples: 60}, seed)
		got := OracleJoin(q, rels)
		inputs := make([]*relation.Relation, len(q.Atoms))
		for i, a := range q.Atoms {
			inputs[i] = Renamed(a, rels[a.Name])
		}
		want := relation.GenericJoin(q.Name, q.Vars(), inputs...)
		if !BagEqual(got, want) {
			t.Fatalf("seed %d (%s, %s): oracle disagrees with generic join: %s",
				seed, q, skew, DiffSample(got, want))
		}
	}
}

// TestOracleGroupByVsRelationGroupBy cross-checks the naive aggregation
// oracle against relation.GroupBy for every aggregate function.
func TestOracleGroupByVsRelationGroupBy(t *testing.T) {
	for _, fn := range []relation.AggFunc{relation.Sum, relation.Count, relation.Min, relation.Max} {
		for seed := int64(1); seed <= 5; seed++ {
			r := GenRelation("R", []string{"g", "v"}, SkewZipf, GenConfig{Tuples: 200, Domain: 20}, seed)
			got := OracleGroupBy("agg", r, []string{"g"}, fn, "v", "out")
			want := relation.GroupBy("agg", r, []string{"g"}, fn, "v", "out")
			if !BagEqual(got, want) {
				t.Fatalf("fn %d seed %d: %s", fn, seed, DiffSample(got, want))
			}
		}
	}
}

// TestOracleGroupByHandChecked pins aggregation semantics by hand.
func TestOracleGroupByHandChecked(t *testing.T) {
	r := relation.FromRows("R", []string{"g", "v"}, [][]relation.Value{
		{1, 10}, {1, -2}, {2, 5}, {1, 10},
	})
	cases := []struct {
		fn   relation.AggFunc
		want [][]relation.Value
	}{
		{relation.Sum, [][]relation.Value{{1, 18}, {2, 5}}},
		{relation.Count, [][]relation.Value{{1, 3}, {2, 1}}},
		{relation.Min, [][]relation.Value{{1, -2}, {2, 5}}},
		{relation.Max, [][]relation.Value{{1, 10}, {2, 5}}},
	}
	for _, tc := range cases {
		got := OracleGroupBy("agg", r, []string{"g"}, tc.fn, "v", "out")
		want := relation.FromRows("agg", []string{"g", "out"}, tc.want)
		if !BagEqual(got, want) {
			t.Fatalf("fn %d: %s", tc.fn, DiffSample(got, want))
		}
	}
}

// TestOracleSort pins the sort oracle: output is a permutation of the
// input, ordered by the key attributes with full-tuple tie-breaking.
func TestOracleSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := relation.New("R", "k", "v")
	for i := 0; i < 300; i++ {
		r.Append(relation.Value(rng.Intn(10)), relation.Value(rng.Intn(50)))
	}
	s := OracleSort(r, "k")
	if !BagEqual(r, s) {
		t.Fatal("sort is not a permutation of its input")
	}
	for i := 1; i < s.Len(); i++ {
		prev, cur := s.Row(i-1), s.Row(i)
		if prev[0] > cur[0] {
			t.Fatalf("row %d out of key order: %v after %v", i, cur, prev)
		}
		if prev[0] == cur[0] && prev[1] > cur[1] {
			t.Fatalf("row %d tie not broken by full tuple: %v after %v", i, cur, prev)
		}
	}
}

// TestBagEqual pins the multiset comparison used by every differential
// assertion, including the cases set comparison would get wrong.
func TestBagEqual(t *testing.T) {
	a := relation.FromRows("A", []string{"x", "y"}, [][]relation.Value{{1, 2}, {1, 2}, {3, 4}})
	sameReordered := relation.FromRows("B", []string{"y", "x"}, [][]relation.Value{{4, 3}, {2, 1}, {2, 1}})
	differentMultiplicity := relation.FromRows("C", []string{"x", "y"}, [][]relation.Value{{1, 2}, {3, 4}, {3, 4}})
	if !BagEqual(a, sameReordered) {
		t.Fatal("same bag under column permutation reported unequal")
	}
	if BagEqual(a, differentMultiplicity) {
		t.Fatal("bags with equal support but different multiplicities reported equal")
	}
	if BagEqual(a, relation.FromRows("D", []string{"x", "z"}, [][]relation.Value{{1, 2}, {1, 2}, {3, 4}})) {
		t.Fatal("mismatched schemas reported equal")
	}
	empty1, empty2 := relation.New("E", "x"), relation.New("F", "x")
	if !BagEqual(empty1, empty2) {
		t.Fatal("two empty relations reported unequal")
	}
}

// TestKernelMatchesOracleJoin is the local join kernel's oracle wall:
// relation.GenericJoin — which core.Reference, and so every wall that
// compares with Reference, calls — and its two-input form
// relation.HashJoin are held to OracleJoin, which shares no code with
// them. Binary, path3, triangle, star3, cycle4 and ternary instances,
// uniform and Zipf, a few hundred rows each (GenInstance makes them
// sets), are compared as sets.
func TestKernelMatchesOracleJoin(t *testing.T) {
	queries := []hypergraph.Query{
		hypergraph.TwoWayJoin(), hypergraph.Path(3), hypergraph.Triangle(),
		hypergraph.Star(3), hypergraph.Cycle(4),
		// Two ternary atoms meet on x and y, so the input not iterated at
		// y is narrowed there with a variable still to bind.
		hypergraph.NewQuery("ternary",
			hypergraph.Atom{Name: "R", Vars: []string{"x", "y", "z"}},
			hypergraph.Atom{Name: "S", Vars: []string{"x", "y", "w"}},
			hypergraph.Atom{Name: "T", Vars: []string{"z", "w"}}),
	}
	for _, q := range queries {
		for _, skew := range []Skew{SkewUniform, SkewZipf} {
			for seed := int64(1); seed <= 3; seed++ {
				rels := GenInstance(q, skew, GenConfig{Tuples: 300, Domain: 60}, seed)
				want := OracleJoin(q, rels)
				inputs := make([]*relation.Relation, len(q.Atoms))
				for i, a := range q.Atoms {
					inputs[i] = Renamed(a, rels[a.Name])
				}
				got := relation.GenericJoin(q.Name, q.Vars(), inputs...)
				if got.Len() != want.Len() || !got.EqualAsSets(want) {
					t.Fatalf("%s, %s, seed %d: GenericJoin has %d rows, OracleJoin %d: %s",
						q.Name, skew, seed, got.Len(), want.Len(), DiffSample(got, want))
				}
				if len(inputs) != 2 {
					continue
				}
				got = relation.HashJoin(q.Name, inputs[0], inputs[1]).Project(q.Name, q.Vars()...)
				if got.Len() != want.Len() || !got.EqualAsSets(want) {
					t.Fatalf("%s, %s, seed %d: HashJoin has %d rows, OracleJoin %d: %s",
						q.Name, skew, seed, got.Len(), want.Len(), DiffSample(got, want))
				}
			}
		}
	}
}
