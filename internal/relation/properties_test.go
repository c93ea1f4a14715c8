package relation

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// genRel is a quick.Generator producing small random binary relations
// over a small domain (so joins actually match).
type genRel struct {
	rel *Relation
}

// Generate implements quick.Generator.
func (genRel) Generate(rand *rand.Rand, size int) reflect.Value {
	n := rand.Intn(25)
	r := New("G", "a", "b")
	for i := 0; i < n; i++ {
		r.Append(Value(rand.Intn(6)), Value(rand.Intn(6)))
	}
	return reflect.ValueOf(genRel{rel: r})
}

func asSchema(g genRel, name, a1, a2 string) *Relation {
	out := New(name, a1, a2)
	for i := 0; i < g.rel.Len(); i++ {
		out.AppendRow(g.rel.Row(i))
	}
	return out
}

// Join is commutative as a set of bindings.
func TestPropJoinCommutative(t *testing.T) {
	f := func(gr, gs genRel) bool {
		r := asSchema(gr, "R", "x", "y")
		s := asSchema(gs, "S", "y", "z")
		rs := HashJoin("J", r, s)
		sr := HashJoin("J", s, r).Project("J", "x", "y", "z")
		return rs.EqualAsSets(sr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Join is associative as a set of bindings.
func TestPropJoinAssociative(t *testing.T) {
	f := func(gr, gs, gu genRel) bool {
		r := asSchema(gr, "R", "x", "y")
		s := asSchema(gs, "S", "y", "z")
		u := asSchema(gu, "U", "z", "w")
		left := HashJoin("J", HashJoin("t", r, s), u)
		right := HashJoin("J", r, HashJoin("t", s, u))
		return left.EqualAsSets(right.Project("J", left.Attrs()...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Semijoin is idempotent: (r ⋉ s) ⋉ s = r ⋉ s.
func TestPropSemijoinIdempotent(t *testing.T) {
	f := func(gr, gs genRel) bool {
		r := asSchema(gr, "R", "x", "y")
		s := asSchema(gs, "S", "y", "z")
		once := Semijoin("SJ", r, s)
		twice := Semijoin("SJ", once, s)
		return once.Len() == twice.Len() && once.EqualAsSets(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Semijoin then join equals join: (r ⋉ s) ⋈ s = r ⋈ s.
func TestPropSemijoinPreservesJoin(t *testing.T) {
	f := func(gr, gs genRel) bool {
		r := asSchema(gr, "R", "x", "y")
		s := asSchema(gs, "S", "y", "z")
		full := HashJoin("J", r, s)
		reduced := HashJoin("J", Semijoin("SJ", r, s), s)
		return full.Len() == reduced.Len() && full.EqualAsSets(reduced)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Dedup is idempotent and order-insensitive.
func TestPropDedupIdempotent(t *testing.T) {
	f := func(g genRel) bool {
		a := g.rel.Clone()
		a.Dedup()
		b := a.Clone()
		b.Dedup()
		return a.Len() == b.Len() && a.EqualAsSets(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// GroupBy Sum conserves the total.
func TestPropGroupBySumConservation(t *testing.T) {
	f := func(g genRel) bool {
		r := asSchema(g, "R", "g", "v")
		agg := GroupBy("A", r, []string{"g"}, Sum, "v", "s")
		var total, aggTotal Value
		for i := 0; i < r.Len(); i++ {
			total += r.Row(i)[1]
		}
		for i := 0; i < agg.Len(); i++ {
			aggTotal += agg.Row(i)[1]
		}
		return total == aggTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// GroupBy Count conserves cardinality.
func TestPropGroupByCountConservation(t *testing.T) {
	f := func(g genRel) bool {
		r := asSchema(g, "R", "g", "v")
		agg := GroupBy("A", r, []string{"g"}, Count, "", "n")
		var total Value
		for i := 0; i < agg.Len(); i++ {
			total += agg.Row(i)[1]
		}
		return int(total) == r.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// genAtoms is a quick.Generator producing the inputs of one multiway
// join: a random query shape over set inputs, as the kernel takes them.
type genAtoms struct {
	vars []string
	rels []*Relation
}

// Generate implements quick.Generator.
func (genAtoms) Generate(rand *rand.Rand, size int) reflect.Value {
	shapes := []struct {
		vars  []string
		atoms [][]string
	}{
		{[]string{"x", "y", "z"}, [][]string{{"x", "y"}, {"y", "z"}, {"z", "x"}}},          // triangle
		{[]string{"a", "b", "c", "d"}, [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}}},     // chain
		{[]string{"x", "y", "z", "w"}, [][]string{{"x", "y"}, {"z", "w"}}},                 // cross product
		{[]string{"z", "x", "y"}, [][]string{{"x", "y"}, {"y", "z"}, {"x", "y", "z"}}},     // containment
		{[]string{"y", "x", "w", "z"}, [][]string{{"x", "y"}, {"z", "w"}, {"y", "z"}, {}}}, // with a nullary atom
		{[]string{"x", "y"}, [][]string{{"x", "y"}, {}}},                                   // R and a nullary atom
	}
	sh := shapes[rand.Intn(len(shapes))]
	g := genAtoms{vars: sh.vars}
	for i, attrs := range sh.atoms {
		r := New(string(rune('A'+i)), attrs...)
		n := rand.Intn(20)
		if len(attrs) == 0 {
			n = rand.Intn(2) // false or true
		}
		row := make([]Value, len(attrs))
		for j := 0; j < n; j++ {
			for c := range row {
				row[c] = Value(rand.Intn(5))
			}
			r.AppendRow(row)
		}
		g.rels = append(g.rels, r.Distinct())
	}
	return reflect.ValueOf(g)
}

// GenericJoin returns exactly the binary plan's bindings, each once,
// columns in varOrder — on cyclic, acyclic and disconnected shapes and
// nullary atoms alike. Rows are compared sorted: the kernel
// promises no order.
func TestPropGenericJoinMatchesBinaryPlan(t *testing.T) {
	f := func(g genAtoms) bool {
		got := GenericJoin("J", g.vars, g.rels...)
		got.Sort()
		want := binaryPlanOracle(g.vars, g.rels...)
		if got.Len() != want.Len() {
			return false
		}
		for i := 0; i < got.Len(); i++ {
			if !rowsEqual(got.Row(i), want.Row(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Projection to all attributes is the identity (as a bag).
func TestPropProjectIdentity(t *testing.T) {
	f := func(g genRel) bool {
		r := g.rel
		p := r.Project("P", r.Attrs()...)
		return p.Len() == r.Len() && p.EqualAsSets(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Semijoin keeps exactly the rows of r whose key occurs in s, each as
// often as r holds it: with the rows it drops, it partitions r.
func TestPropSemijoinPartition(t *testing.T) {
	f := func(gr, gs genRel) bool {
		r := asSchema(gr, "R", "x", "y")
		s := asSchema(gs, "S", "y", "z")
		inS := map[Value]bool{}
		for i := 0; i < s.Len(); i++ {
			inS[s.Row(i)[0]] = true
		}
		want := New("W", "x", "y")
		for i := 0; i < r.Len(); i++ {
			if inS[r.Row(i)[1]] {
				want.AppendRow(r.Row(i))
			}
		}
		semi := Semijoin("SJ", r, s)
		if semi.Len() != want.Len() {
			return false
		}
		semi.Sort()
		want.Sort()
		for i := 0; i < want.Len(); i++ {
			if !slices.Equal(semi.Row(i), want.Row(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
