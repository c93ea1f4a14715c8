package relation

import "testing"

// Table-driven edge cases for the relational substrate: zero-arity
// schemas, empty relations, and duplicate tuples under bag semantics.
// These pin the behaviors every MPC algorithm silently relies on.

func mustPanicR(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

// TestZeroAritySchemas pins the nullary-relation contract: arity-0
// relations are legal (they carry decision-query results as a
// multiplicity of the empty tuple), store no words, and behave as
// proper bags under append, projection, selection, and dedup.
func TestZeroAritySchemas(t *testing.T) {
	t.Run("New with empty schema", func(t *testing.T) {
		r := New("R")
		if r.Arity() != 0 || r.Len() != 0 || r.Words() != 0 {
			t.Fatalf("fresh nullary relation: arity=%d len=%d words=%d", r.Arity(), r.Len(), r.Words())
		}
		r.Append()
		r.AppendRow(nil)
		r.AppendFlat(nil, 3)
		if r.Len() != 5 || r.Words() != 0 {
			t.Fatalf("after appends: len=%d words=%d, want 5/0", r.Len(), r.Words())
		}
		if row := r.Row(2); len(row) != 0 {
			t.Fatalf("nullary row has %d values", len(row))
		}
		c := r.Clone()
		if c.Len() != 5 {
			t.Fatalf("clone len = %d", c.Len())
		}
		c.AppendAll(r)
		if c.Len() != 10 {
			t.Fatalf("appendAll len = %d", c.Len())
		}
		sel := r.Select("s", func([]Value) bool { return true })
		if sel.Len() != 5 {
			t.Fatalf("select len = %d", sel.Len())
		}
		r.Dedup()
		if r.Len() != 1 {
			t.Fatalf("dedup left %d copies of the empty tuple", r.Len())
		}
		if !r.EqualAsSets(c) {
			t.Fatal("nullary EqualAsSets must ignore multiplicity")
		}
		mustPanicR(t, "appendFlat words into arity 0", func() { r.AppendFlat([]Value{1}, 1) })
	})
	t.Run("FromRows with empty schema", func(t *testing.T) {
		if r := FromRows("R", nil, nil); r.Arity() != 0 || r.Len() != 0 {
			t.Fatalf("arity=%d len=%d", r.Arity(), r.Len())
		}
	})
	t.Run("Project to zero attributes keeps rows", func(t *testing.T) {
		r := FromRows("R", []string{"x"}, [][]Value{{1}, {2}, {2}})
		p := r.Project("p") // the decision-query projection
		if p.Arity() != 0 || p.Len() != 3 {
			t.Fatalf("arity=%d len=%d, want 0/3", p.Arity(), p.Len())
		}
	})
	// Wrong-arity appends are still rejected.
	r := New("R", "x", "y")
	mustPanicR(t, "append arity 0", func() { r.Append() })
	mustPanicR(t, "append arity 1", func() { r.Append(1) })
	mustPanicR(t, "appendFlat word mismatch", func() { r.AppendFlat([]Value{1, 2, 3}, 2) })
}

// TestEmptyRelations: every operator must treat an empty relation as a
// proper zero, not a special case.
func TestEmptyRelations(t *testing.T) {
	empty := New("E", "x", "y")
	nonEmpty := FromRows("R", []string{"y", "z"}, [][]Value{{1, 2}})
	tests := []struct {
		name string
		got  *Relation
	}{
		{"project", empty.Project("p", "y")},
		{"select", empty.Select("s", func([]Value) bool { return true })},
		{"clone", empty.Clone()},
		{"hash join empty⋈R", HashJoin("j", empty, nonEmpty)},
		{"hash join R⋈empty", HashJoin("j", nonEmpty, empty)},
		{"nested-loop join", NestedLoopJoin("j", empty, nonEmpty)},
		{"semijoin", Semijoin("sj", empty, nonEmpty)},
		{"generic join", GenericJoin("g", []string{"x", "y", "z"}, empty, nonEmpty)},
		{"group-by", GroupBy("a", empty, []string{"x"}, Sum, "y", "s")},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.got.Len() != 0 {
				t.Fatalf("got %d tuples from an empty input, want 0", tc.got.Len())
			}
		})
	}
	// In-place operators are no-ops on empties.
	e := New("E", "x")
	e.Sort()
	e.Dedup()
	if e.Len() != 0 || e.Words() != 0 {
		t.Fatal("sort/dedup changed an empty relation")
	}
}

// TestDuplicateTuplesBagSemantics: the storage layer is a bag —
// duplicates survive append, projection, selection and joins, and only
// Dedup collapses them.
func TestDuplicateTuplesBagSemantics(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{1, 2}, {1, 2}, {1, 2}, {3, 4}})
	tests := []struct {
		name string
		got  *Relation
		want int
	}{
		{"append retains duplicates", r, 4},
		{"projection retains duplicates", r.Project("p", "x"), 4},
		{"projection can create duplicates", FromRows("S", []string{"x", "y"}, [][]Value{{1, 1}, {1, 2}}).Project("p", "x"), 2},
		{"selection retains duplicates", r.Select("s", func(row []Value) bool { return row[0] == 1 }), 3},
		{"clone retains duplicates", r.Clone(), 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.got.Len() != tc.want {
				t.Fatalf("got %d tuples, want %d", tc.got.Len(), tc.want)
			}
		})
	}
	// Joins multiply multiplicities: 3 copies of (1,2) ⋈ 2 copies of
	// (2,9) yield 6 output tuples.
	s := FromRows("S", []string{"y", "z"}, [][]Value{{2, 9}, {2, 9}})
	if got := HashJoin("j", r, s); got.Len() != 6 {
		t.Fatalf("bag join produced %d tuples, want 6", got.Len())
	}
	// AppendAll concatenates bags.
	both := r.Clone()
	both.AppendAll(r)
	if both.Len() != 8 {
		t.Fatalf("appendAll: %d tuples, want 8", both.Len())
	}
	// Dedup collapses to the support, exactly once each.
	d := r.Clone()
	d.Dedup()
	if d.Len() != 2 {
		t.Fatalf("dedup: %d tuples, want 2", d.Len())
	}
	d.Dedup() // idempotent
	if d.Len() != 2 {
		t.Fatalf("dedup not idempotent: %d tuples", d.Len())
	}
	// EqualAsSets ignores multiplicity by design.
	if !r.EqualAsSets(d) {
		t.Fatal("EqualAsSets must ignore duplicate multiplicity")
	}
}
