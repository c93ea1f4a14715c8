// Package relation implements the in-memory relational substrate used by
// every MPC algorithm in this repository: flat row-major relations over
// int64 attribute values, together with the local (single-server)
// operators — selection, projection, sorting, deduplication, the local
// join kernel (GenericJoin, HashJoin), semijoins, grouping — that each
// simulated server runs between communication rounds.
//
// The representation is deliberately simple and allocation-friendly: a
// relation of arity k stores its tuples in one []Value of length k·Len(),
// and Row(i) returns a subslice view. All operators are deterministic.
package relation

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Value is the domain of every attribute. The tutorial's algorithms are
// agnostic to the attribute domain; integers keep hashing and comparison
// cheap and deterministic.
type Value = int64

// Relation is a named bag of tuples with a fixed schema. Attribute names
// drive natural joins: two relations join on the attributes they share.
//
// A relation may have arity 0 (a nullary relation): its tuples carry no
// values, so only their multiplicity is stored. Nullary relations are
// the result type of boolean/decision queries — "is the answer
// non-empty" is a relation holding zero or more copies of the empty
// tuple — and the MPC engine delivers and meters them like any other.
type Relation struct {
	name  string
	attrs []string
	data  []Value // row-major, len = arity * rows
	nrows int     // row count when arity == 0 (data stays empty)
}

// New returns an empty relation with the given name and attribute names.
// It panics on duplicate attributes, since such schemas are always
// construction bugs. An empty attrs list constructs a nullary relation.
func New(name string, attrs ...string) *Relation {
	return &Relation{name: name, attrs: schema(name, attrs)}
}

// schema returns a private copy of attrs, panicking on a duplicate.
func schema(name string, attrs []string) []string {
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			panic(fmt.Sprintf("relation: duplicate attribute %q in %s", a, name))
		}
		seen[a] = true
	}
	return append([]string(nil), attrs...)
}

// FromRows builds a relation from explicit rows; convenient in tests.
func FromRows(name string, attrs []string, rows [][]Value) *Relation {
	r := New(name, attrs...)
	for _, row := range rows {
		r.Append(row...)
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Rename returns r under a new name and, when attrs are given, a new
// attribute list matched to r's columns by position. It copies no
// tuple: the result shares r's storage, which is how inputs are
// relabelled to a query's variables. Sharing is safe because no
// operator rewrites rows in place — SortBy and Dedup sort a private
// copy — and an append to either relation never lands in the other's
// rows. It panics, like New, on a duplicate attribute, and on an attrs
// list whose length is not r's arity.
func (r *Relation) Rename(name string, attrs ...string) *Relation {
	out := *r
	out.name = name
	out.data = r.data[:len(r.data):len(r.data)]
	if len(attrs) > 0 {
		if len(attrs) != len(r.attrs) {
			panic(fmt.Sprintf("relation %s: rename as %s with arity %d, want %d", r.name, name, len(attrs), len(r.attrs)))
		}
		out.attrs = schema(name, attrs)
	}
	return &out
}

// Tail returns r's rows from row from on, named name, as a read-only
// view: like Rename it copies no tuple, and its capacity ends where its
// rows do, so an append to either relation never lands in the other's
// rows. An accumulator hands out what it just appended this way.
func (r *Relation) Tail(name string, from int) *Relation {
	out := *r
	out.name = name
	out.data = r.data[from*len(r.attrs) : len(r.data) : len(r.data)]
	if len(r.attrs) == 0 {
		out.nrows -= from
	}
	return &out
}

// Attrs returns the schema. The slice must not be mutated.
func (r *Relation) Attrs() []string { return r.attrs }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.attrs) }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if len(r.attrs) == 0 {
		return r.nrows
	}
	return len(r.data) / len(r.attrs)
}

// Words returns the total number of Values stored; this is the "word
// count" unit used by the MPC load metering.
func (r *Relation) Words() int { return len(r.data) }

// Flat returns the tuples row-major, as a view of r's storage: for arity
// k, Row(i) is Flat()[i·k : (i+1)·k], so column c is every k-th value
// from index c. Callers must not modify it.
func (r *Relation) Flat() []Value { return r.data }

// Cap returns how many Values r's storage holds before an append must
// grow it; Words() ≤ Cap(). A relation an MPC round created to receive
// a stream is presized exactly, so its Cap equals its Words.
func (r *Relation) Cap() int { return cap(r.data) }

// Append adds one tuple. It panics if the arity does not match.
func (r *Relation) Append(vals ...Value) {
	if len(vals) != len(r.attrs) {
		panic(fmt.Sprintf("relation %s: append arity %d, want %d", r.name, len(vals), len(r.attrs)))
	}
	if len(r.attrs) == 0 {
		r.nrows++
		return
	}
	r.data = append(r.data, vals...)
}

// AppendRow adds one tuple given as a slice (copied).
func (r *Relation) AppendRow(row []Value) { r.Append(row...) }

// AppendAll copies every tuple of s into r. Schemas must match exactly.
func (r *Relation) AppendAll(s *Relation) {
	if len(s.attrs) != len(r.attrs) {
		panic(fmt.Sprintf("relation %s: appendAll arity mismatch with %s", r.name, s.name))
	}
	r.nrows += s.nrows
	r.data = append(r.data, s.data...)
}

// Reset empties r and keeps its storage, for a buffer refilled round
// after round.
func (r *Relation) Reset() {
	r.data = r.data[:0]
	r.nrows = 0
}

// Grow reserves capacity for at least words more values, so a known
// upcoming volume of appends performs at most one reallocation.
func (r *Relation) Grow(words int) {
	if cap(r.data)-len(r.data) < words {
		nd := make([]Value, len(r.data), len(r.data)+words)
		copy(nd, r.data)
		r.data = nd
	}
}

// AppendFlat appends tuples rows stored row-major in flat, in one bulk
// copy. This is the MPC delivery engine's hot path: one bounds check
// and one copy per fragment instead of one call per row. For nullary
// relations flat must be empty and only the count is added.
func (r *Relation) AppendFlat(flat []Value, tuples int) {
	k := len(r.attrs)
	if k == 0 {
		if len(flat) != 0 {
			panic(fmt.Sprintf("relation %s: appendFlat %d words into arity 0", r.name, len(flat)))
		}
		r.nrows += tuples
		return
	}
	if len(flat) != tuples*k {
		panic(fmt.Sprintf("relation %s: appendFlat %d words for %d tuples of arity %d",
			r.name, len(flat), tuples, k))
	}
	r.data = append(r.data, flat...)
}

// Extend adds tuples rows to r and returns their storage, row-major,
// for the caller to fill in place: the bulk form of Append for a writer
// that knows where each value goes, such as a scatter's counting sort.
// The caller must write every value before r is read. Storage grows at
// most once, to exactly the words needed. For a nullary relation only
// the count is added, and the storage is empty.
func (r *Relation) Extend(tuples int) []Value {
	if len(r.attrs) == 0 {
		r.nrows += tuples
		return nil
	}
	n := len(r.data)
	r.Grow(tuples * len(r.attrs))
	r.data = r.data[:n+tuples*len(r.attrs)]
	return r.data[n:]
}

// Row returns tuple i as a view into the underlying storage. Callers must
// not retain it across mutations of r.
func (r *Relation) Row(i int) []Value {
	k := len(r.attrs)
	return r.data[i*k : (i+1)*k : (i+1)*k]
}

// Col returns the index of the named attribute, or -1 if absent.
func (r *Relation) Col(attr string) int {
	for i, a := range r.attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// MustCol is Col but panics on a missing attribute.
func (r *Relation) MustCol(attr string) int {
	c := r.Col(attr)
	if c < 0 {
		panic(fmt.Sprintf("relation %s: no attribute %q (have %v)", r.name, attr, r.attrs))
	}
	return c
}

// MustCols returns the column index of every named attribute, in order;
// like MustCol it panics on a missing one.
func (r *Relation) MustCols(attrs []string) []int {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = r.MustCol(a)
	}
	return cols
}

// Clone returns a deep copy of r.
func (r *Relation) Clone() *Relation {
	out := *r
	out.data = nil
	if len(r.data) > 0 {
		out.data = make([]Value, len(r.data))
		copy(out.data, r.data)
	}
	return &out
}

// Empty returns an empty relation with the same name and schema.
func (r *Relation) Empty() *Relation { return New(r.name, r.attrs...) }

// Project returns a new relation keeping only the named attributes, in
// the given order. Duplicate rows are retained (bag semantics); call
// Dedup for set semantics.
func (r *Relation) Project(name string, attrs ...string) *Relation {
	cols := r.MustCols(attrs)
	out := New(name, attrs...)
	if len(attrs) == 0 {
		// Projection to zero attributes keeps each row as one copy of
		// the empty tuple — the decision-query projection.
		out.nrows = r.Len()
		return out
	}
	n, k := r.Len(), len(cols)
	if n == 0 {
		return out
	}
	out.data = make([]Value, n*k)
	for i := 0; i < n; i++ {
		row, dst := r.Row(i), out.data[i*k:(i+1)*k]
		for j, c := range cols {
			dst[j] = row[c]
		}
	}
	return out
}

// Select returns the tuples satisfying pred. It marks the matches in a
// bitmap on one pass and copies them on a second, so the output is
// allocated once, at its exact size: Cap() == Words().
func (r *Relation) Select(name string, pred func(row []Value) bool) *Relation {
	out := New(name, r.attrs...)
	if len(r.attrs) == 0 {
		for i := 0; i < r.nrows; i++ {
			if pred(nil) {
				out.nrows++
			}
		}
		return out
	}
	n, k := r.Len(), len(r.attrs)
	hits := make([]uint64, (n+63)/64)
	m := 0
	for i := 0; i < n; i++ {
		if pred(r.Row(i)) {
			hits[i/64] |= 1 << (i % 64)
			m++
		}
	}
	if m == 0 {
		return out
	}
	out.data = make([]Value, 0, m*k)
	for w, word := range hits {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			out.data = append(out.data, r.data[i*k:(i+1)*k]...)
		}
	}
	return out
}

// SortBy sorts r in place lexicographically by the given attributes,
// breaking ties by the full tuple so the order is total and deterministic.
func (r *Relation) SortBy(attrs ...string) {
	if len(r.attrs) == 0 {
		return // nullary: all tuples are the empty tuple
	}
	order := r.MustCols(attrs)
	for c := range r.attrs {
		if !slices.Contains(order, c) {
			order = append(order, c)
		}
	}
	// Sort a copy: relations made by Rename share r's storage and must
	// not see their rows move.
	r.data = append([]Value(nil), r.data...)
	a := getArena()
	defer putArena(a)
	sortRows(r.data, len(r.attrs), order, a)
}

// Sort sorts r in place by all attributes left to right.
func (r *Relation) Sort() { r.SortBy(r.attrs...) }

// Dedup sorts r and removes duplicate tuples in place.
func (r *Relation) Dedup() {
	if len(r.attrs) == 0 {
		if r.nrows > 1 {
			r.nrows = 1
		}
		return
	}
	r.Sort()
	k := len(r.attrs)
	n := r.Len()
	if n == 0 {
		return
	}
	w := 1
	for i := 1; i < n; i++ {
		if !rowsEqual(r.data[i*k:i*k+k], r.data[(w-1)*k:w*k]) {
			copy(r.data[w*k:(w+1)*k], r.data[i*k:(i+1)*k])
			w++
		}
	}
	r.data = r.data[:w*k]
}

func rowsEqual(a, b []Value) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EqualAsSets reports whether r and s contain the same set of tuples
// (ignoring order and duplicates). Schemas must have the same attributes,
// possibly in different order.
func (r *Relation) EqualAsSets(s *Relation) bool {
	if len(r.attrs) != len(s.attrs) {
		return false
	}
	for _, a := range r.attrs {
		if s.Col(a) < 0 {
			return false
		}
	}
	a := r.Clone()
	a.Dedup()
	b := s.Project("tmp", r.attrs...)
	b.Dedup()
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !rowsEqual(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

// String renders a small relation for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) [%d rows]", r.name, strings.Join(r.attrs, ","), r.Len())
	n := r.Len()
	if n > 20 {
		n = 20
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\n  %v", r.Row(i))
	}
	if r.Len() > n {
		fmt.Fprintf(&b, "\n  ... (%d more)", r.Len()-n)
	}
	return b.String()
}

// SharedAttrs returns the attributes present in both r and s, in r's
// schema order. This drives natural joins and semijoins.
func SharedAttrs(r, s *Relation) []string {
	var shared []string
	for _, a := range r.attrs {
		if s.Col(a) >= 0 {
			shared = append(shared, a)
		}
	}
	return shared
}

// joinSchema returns the natural-join output schema: r's attributes
// followed by s's attributes that are not in r.
func joinSchema(r, s *Relation) []string {
	out := append([]string(nil), r.attrs...)
	for _, a := range s.attrs {
		if r.Col(a) < 0 {
			out = append(out, a)
		}
	}
	return out
}
