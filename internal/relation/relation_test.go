package relation

import (
	"math/rand"
	"testing"
)

func TestNewPanics(t *testing.T) {
	mustPanic(t, "dup attr", func() { New("R", "x", "x") })
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

func TestAppendRowLen(t *testing.T) {
	r := New("R", "x", "y")
	if r.Len() != 0 || r.Arity() != 2 {
		t.Fatalf("empty relation wrong shape: len=%d arity=%d", r.Len(), r.Arity())
	}
	r.Append(1, 2)
	r.AppendRow([]Value{3, 4})
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
	if got := r.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("row 1 = %v", got)
	}
	if r.Words() != 4 {
		t.Fatalf("words = %d, want 4", r.Words())
	}
	mustPanic(t, "arity mismatch", func() { r.Append(1) })
}

func TestColLookup(t *testing.T) {
	r := New("R", "x", "y", "z")
	if r.Col("y") != 1 || r.Col("w") != -1 {
		t.Fatalf("Col lookup broken")
	}
	mustPanic(t, "missing col", func() { r.MustCol("w") })
}

func TestProjectSelect(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{1, 10}, {2, 20}, {3, 30}})
	p := r.Project("P", "y")
	if p.Len() != 3 || p.Row(0)[0] != 10 {
		t.Fatalf("project wrong: %v", p)
	}
	// Project can also reorder.
	p2 := r.Project("P2", "y", "x")
	if got := p2.Row(2); got[0] != 30 || got[1] != 3 {
		t.Fatalf("reorder project wrong: %v", got)
	}
	s := r.Select("S", func(row []Value) bool { return row[0] >= 2 })
	if s.Len() != 2 {
		t.Fatalf("select kept %d rows, want 2", s.Len())
	}
	se := r.SelectEq("E", "x", 2)
	if se.Len() != 1 || se.Row(0)[1] != 20 {
		t.Fatalf("selectEq wrong: %v", se)
	}
}

func TestSortDedup(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{
		{2, 1}, {1, 5}, {2, 1}, {1, 2}, {1, 2},
	})
	r.Dedup()
	want := [][]Value{{1, 2}, {1, 5}, {2, 1}}
	if r.Len() != len(want) {
		t.Fatalf("dedup kept %d rows, want %d: %v", r.Len(), len(want), r)
	}
	for i, w := range want {
		if got := r.Row(i); got[0] != w[0] || got[1] != w[1] {
			t.Fatalf("row %d = %v, want %v", i, got, w)
		}
	}
}

func TestSortByKeyOnly(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{3, 0}, {1, 9}, {2, 5}})
	r.SortBy("x")
	for i := 0; i < r.Len()-1; i++ {
		if r.Row(i)[0] > r.Row(i + 1)[0] {
			t.Fatalf("not sorted by x at %d", i)
		}
	}
}

func TestEqualAsSets(t *testing.T) {
	a := FromRows("A", []string{"x", "y"}, [][]Value{{1, 2}, {3, 4}, {1, 2}})
	b := FromRows("B", []string{"y", "x"}, [][]Value{{4, 3}, {2, 1}})
	if !a.EqualAsSets(b) {
		t.Fatalf("sets should be equal despite attr order and dups")
	}
	c := FromRows("C", []string{"x", "y"}, [][]Value{{1, 2}})
	if a.EqualAsSets(c) {
		t.Fatalf("different sets reported equal")
	}
	d := FromRows("D", []string{"x", "z"}, [][]Value{{1, 2}, {3, 4}})
	if a.EqualAsSets(d) {
		t.Fatalf("different schemas reported equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromRows("A", []string{"x"}, [][]Value{{1}})
	b := a.Clone()
	b.Append(2)
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("clone not independent: %d %d", a.Len(), b.Len())
	}
}

// TestRename pins the one relabel: attrs are optional, checked like
// New's, and the result shares storage without letting an append on
// either side reach the other.
func TestRename(t *testing.T) {
	a := New("A", "x", "y")
	a.Grow(8) // spare capacity an append on the view could land in
	a.Append(1, 2)
	a.Append(3, 4)
	same := a.Rename("B")
	if same.Name() != "B" || same.Attrs()[0] != "x" || same.Attrs()[1] != "y" {
		t.Fatalf("rename without attrs: %s%v", same.Name(), same.Attrs())
	}
	v := a.Rename("V", "u", "w")
	if v.Name() != "V" || v.Attrs()[0] != "u" || v.Attrs()[1] != "w" || v.Col("x") != -1 {
		t.Fatalf("rename with attrs: %s%v", v.Name(), v.Attrs())
	}
	if a.Name() != "A" || a.Attrs()[0] != "x" {
		t.Fatalf("rename changed the original: %s%v", a.Name(), a.Attrs())
	}
	if &v.Row(1)[0] != &a.Row(1)[0] {
		t.Fatal("rename copied the tuples")
	}
	v.Append(5, 6)
	a.Append(7, 8)
	if a.Len() != 3 || a.Row(2)[0] != 7 || v.Len() != 3 || v.Row(2)[0] != 5 {
		t.Fatalf("appends crossed between a relation and its rename: %v / %v", a, v)
	}
	mustPanic(t, "rename arity mismatch", func() { a.Rename("R", "x") })
	mustPanic(t, "rename duplicate attrs", func() { a.Rename("R", "x", "x") })
}

func randRel(rng *rand.Rand, name string, attrs []string, n, domain int) *Relation {
	r := New(name, attrs...)
	row := make([]Value, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = Value(rng.Intn(domain))
		}
		r.AppendRow(row)
	}
	return r
}

// TestJoinImplementationsAgree cross-validates hash join, sort-merge
// join, and nested-loop join on random inputs, including high-duplicate
// domains that stress the merge run logic.
func TestJoinImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		dom := 2 + rng.Intn(8)
		r := randRel(rng, "R", []string{"x", "y"}, rng.Intn(40), dom)
		s := randRel(rng, "S", []string{"y", "z"}, rng.Intn(40), dom)
		h := HashJoin("J", r, s)
		m := SortMergeJoin("J", r, s)
		n := NestedLoopJoin("J", r, s)
		if !h.EqualAsSets(n) {
			t.Fatalf("trial %d: hash join != nested loop\nR=%v\nS=%v", trial, r, s)
		}
		if !m.EqualAsSets(n) {
			t.Fatalf("trial %d: sort-merge join != nested loop", trial)
		}
		// Bag sizes must also agree (joins preserve multiplicity).
		if h.Len() != n.Len() || m.Len() != n.Len() {
			t.Fatalf("trial %d: bag sizes differ: hash=%d merge=%d nl=%d", trial, h.Len(), m.Len(), n.Len())
		}
	}
}

func TestJoinMultiAttr(t *testing.T) {
	r := FromRows("R", []string{"x", "y", "z"}, [][]Value{{1, 2, 3}, {1, 2, 4}, {5, 6, 7}})
	s := FromRows("S", []string{"x", "y", "w"}, [][]Value{{1, 2, 9}, {5, 0, 9}})
	j := HashJoin("J", r, s)
	// Shares x and y: only the (1,2,*) rows match.
	if j.Len() != 2 {
		t.Fatalf("join len = %d, want 2: %v", j.Len(), j)
	}
	if j.Arity() != 4 {
		t.Fatalf("join arity = %d, want 4 (x,y,z,w)", j.Arity())
	}
}

func TestCrossProduct(t *testing.T) {
	r := FromRows("R", []string{"x"}, [][]Value{{1}, {2}})
	s := FromRows("S", []string{"z"}, [][]Value{{10}, {20}, {30}})
	cp := CrossProduct("C", r, s)
	if cp.Len() != 6 {
		t.Fatalf("cross product len = %d, want 6", cp.Len())
	}
	mustPanic(t, "shared attrs", func() { CrossProduct("C", r, r) })
}

func TestSemijoinAntijoin(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{1, 1}, {2, 2}, {3, 3}})
	s := FromRows("S", []string{"y", "z"}, [][]Value{{1, 0}, {3, 0}})
	semi := Semijoin("SJ", r, s)
	anti := Antijoin("AJ", r, s)
	if semi.Len() != 2 || anti.Len() != 1 {
		t.Fatalf("semi=%d anti=%d, want 2,1", semi.Len(), anti.Len())
	}
	if anti.Row(0)[1] != 2 {
		t.Fatalf("antijoin kept wrong row: %v", anti.Row(0))
	}
	// Semijoin + antijoin partition r.
	if semi.Len()+anti.Len() != r.Len() {
		t.Fatalf("semijoin/antijoin do not partition input")
	}
	// No shared attributes: semijoin keeps all iff s nonempty.
	u := FromRows("U", []string{"w"}, [][]Value{{5}})
	if Semijoin("SJ", r, u).Len() != r.Len() {
		t.Fatalf("semijoin with disjoint nonempty should keep all")
	}
	if Semijoin("SJ", r, New("E", "w")).Len() != 0 {
		t.Fatalf("semijoin with disjoint empty should keep none")
	}
	if Antijoin("AJ", r, New("E", "w")).Len() != r.Len() {
		t.Fatalf("antijoin with disjoint empty should keep all")
	}
}

func TestSemijoinReducesNeverGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		r := randRel(rng, "R", []string{"x", "y"}, rng.Intn(50), 10)
		s := randRel(rng, "S", []string{"y", "z"}, rng.Intn(50), 10)
		semi := Semijoin("SJ", r, s)
		if semi.Len() > r.Len() {
			t.Fatalf("semijoin grew: %d > %d", semi.Len(), r.Len())
		}
		// Every semijoin survivor must appear in the full join projection.
		j := HashJoin("J", r, s).Project("P", "x", "y")
		j.Dedup()
		sd := semi.Clone()
		sd.Dedup()
		if !sd.EqualAsSets(j) {
			t.Fatalf("semijoin survivors != join projection")
		}
	}
}

func TestIntersect(t *testing.T) {
	a := FromRows("A", []string{"x"}, [][]Value{{1}, {2}, {3}})
	b := FromRows("B", []string{"x"}, [][]Value{{2}, {3}, {4}})
	c := FromRows("C", []string{"x"}, [][]Value{{3}, {4}, {5}})
	got := Intersect("I", a, b, c)
	if got.Len() != 1 || got.Row(0)[0] != 3 {
		t.Fatalf("intersect = %v, want {3}", got)
	}
}

func TestMultiJoinChain(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{1, 2}, {2, 3}})
	s := FromRows("S", []string{"y", "z"}, [][]Value{{2, 5}, {3, 6}})
	u := FromRows("U", []string{"z", "w"}, [][]Value{{5, 7}})
	j := MultiJoin("J", r, s, u)
	if j.Len() != 1 {
		t.Fatalf("chain join len = %d, want 1: %v", j.Len(), j)
	}
	row := j.Row(0)
	want := []Value{1, 2, 5, 7}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("chain join row = %v, want %v", row, want)
		}
	}
}

func TestTopKByCount(t *testing.T) {
	r := FromRows("R", []string{"x"}, [][]Value{{1}, {1}, {1}, {2}, {2}, {3}})
	top := TopKByCount(r, "x", 2)
	if len(top) != 2 || top[0] != 1 || top[1] != 2 {
		t.Fatalf("topK = %v", top)
	}
}
