package relation

import (
	"slices"
	"testing"
)

// FuzzBucketRouting fuzzes the hash-partition routing primitive every
// shuffle round is built on: for any hash value and cluster size,
// Bucket must assign exactly one server in [0, p), deterministically.
func FuzzBucketRouting(f *testing.F) {
	f.Add(uint64(0), 1)
	f.Add(uint64(1<<63), 7)
	f.Add(^uint64(0), 1024)
	f.Fuzz(func(t *testing.T, h uint64, p int) {
		if p < 1 || p > 1<<16 {
			t.Skip("cluster size outside supported range")
		}
		dst := Bucket(h, p)
		if dst < 0 || dst >= p {
			t.Fatalf("Bucket(%d, %d) = %d outside [0, %d)", h, p, dst, p)
		}
		if again := Bucket(h, p); again != dst {
			t.Fatalf("Bucket(%d, %d) nondeterministic: %d then %d", h, p, dst, again)
		}
	})
}

// FuzzHashRowRouting fuzzes end-to-end tuple routing (HashRow ∘ Bucket)
// as the algorithms use it: the same tuple hashed on the same columns
// with the same seed must land on the same single server in [0, p) —
// the invariant that makes hash joins meet matching tuples.
func FuzzHashRowRouting(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), uint64(0), 2)
	f.Add(int64(-1), int64(42), int64(7), uint64(0x9e3779b9), 8)
	f.Add(int64(1<<62), int64(-1<<62), int64(5), ^uint64(0), 1)
	f.Fuzz(func(t *testing.T, a, b, c int64, seed uint64, p int) {
		if p < 1 || p > 1<<16 {
			t.Skip("cluster size outside supported range")
		}
		row := []Value{a, b, c}
		cols := []int{0, 1, 2}
		dst := Bucket(HashRow(row, cols, seed), p)
		if dst < 0 || dst >= p {
			t.Fatalf("tuple %v routed to %d outside [0, %d)", row, dst, p)
		}
		// A copy of the tuple (as after a network hop) routes identically.
		copyRow := []Value{a, b, c}
		if again := Bucket(HashRow(copyRow, cols, seed), p); again != dst {
			t.Fatalf("tuple %v routed to %d then %d", row, dst, again)
		}
		// Routing on a subset of columns must agree for tuples equal on
		// that subset, regardless of the other attributes.
		other := []Value{a, b, c + 1}
		if d2 := Bucket(HashRow(other, []int{0, 1}, seed), p); d2 != Bucket(HashRow(row, []int{0, 1}, seed), p) {
			t.Fatalf("join-key routing differs for tuples equal on the key: %d vs %d", d2, dst)
		}
	})
}

// FuzzRadixIndex fuzzes the radix hash kernel against the EncodeKey map
// oracle: for an arbitrary relation (decoded from raw bytes as int64
// key/payload pairs) and an arbitrary probe key, insert and lookup must
// agree exactly — same groups, same row ids, same order — including
// when keys collide in the table's hash buckets. Semijoin, which
// probes the key-only form of the index, must keep exactly the rows
// the map says match, in order.
func FuzzRadixIndex(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, int64(-1))
	f.Fuzz(func(t *testing.T, data []byte, probeKey int64) {
		r := New("F", "k", "v")
		for i := 0; i+8 <= len(data); i += 8 {
			var k int64
			for j := 0; j < 8; j++ {
				k |= int64(data[i+j]) << (8 * j)
			}
			// Narrow part of the key space so collisions actually occur.
			if k%3 == 0 {
				k %= 16
			}
			r.Append(Value(k), Value(i))
		}
		ix := BuildIndex(r, []string{"k"})
		oracle := map[Value][]int32{}
		for i := 0; i < r.Len(); i++ {
			oracle[r.Row(i)[0]] = append(oracle[r.Row(i)[0]], int32(i))
		}
		if ix.ri.distinct != len(oracle) {
			t.Fatalf("distinct keys = %d, oracle %d", ix.ri.distinct, len(oracle))
		}
		check := func(key Value) {
			got := ix.LookupKey([]Value{key})
			want := oracle[key]
			if len(got) != len(want) {
				t.Fatalf("key %d: %d rows, oracle %d", key, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("key %d: rows %v, oracle %v", key, got, want)
				}
			}
		}
		for k := range oracle {
			check(k)
		}
		check(Value(probeKey))

		// Semijoin probes the key-only index: over the probe relation
		// P(k) of probeKey and every other row's key, each side keeps its
		// rows whose key the other holds, in order.
		p := New("P", "k")
		p.Append(Value(probeKey))
		for i := 1; i < r.Len(); i += 2 {
			p.Append(r.Row(i)[0])
		}
		inP := map[Value]bool{}
		for i := 0; i < p.Len(); i++ {
			inP[p.Row(i)[0]] = true
		}
		semi := func(got, from *Relation, keep func(Value) bool) {
			want := New("W", from.Attrs()...)
			for i := 0; i < from.Len(); i++ {
				if keep(from.Row(i)[0]) {
					want.AppendRow(from.Row(i))
				}
			}
			if got.Len() != want.Len() {
				t.Fatalf("Semijoin of %s: %d rows, oracle %d", from.Name(), got.Len(), want.Len())
			}
			for i := 0; i < got.Len(); i++ {
				if !rowsEqual(got.Row(i), want.Row(i)) {
					t.Fatalf("Semijoin of %s: row %d = %v, oracle %v", from.Name(), i, got.Row(i), want.Row(i))
				}
			}
		}
		semi(Semijoin("S", r, p), r, func(k Value) bool { return inP[k] })
		semi(Semijoin("S", p, r), p, func(k Value) bool { return oracle[k] != nil })
	})
}

// FuzzGenericJoin fuzzes the join kernel against the definition of a
// conjunctive query: bytes decode to a variable order over up to four
// variables and one to four relations of arity 0-3 over them, duplicate
// rows and nullary atoms included; the oracle enumerates every
// assignment of the active domain to the variables, keeps those every
// atom contains, and so lists the bindings once each. The kernel takes
// each atom as a set (Distinct) and must return the same bindings, each
// exactly once, columns in the variable order; it promises no row
// order, so both sides are compared sorted. With two relations, HashJoin
// must also equal a nested-loop enumeration of the bag join of the raw
// atoms, repeated rows included, row for row in its documented order.
func FuzzGenericJoin(f *testing.F) {
	// A(x,y) = {(1,2)} and a false nullary atom: the case the retired
	// hash-grouping kernel got wrong (it ignored the atom).
	f.Add([]byte{0, 1, 0x08, 1, 2, 4, 0x00, 0})
	// ... and a true one, twice over.
	f.Add([]byte{0, 1, 0x08, 1, 2, 4, 0x00, 2})
	// The triangle A(x,y), B(y,w), C(w,x) under the order x,y,w (C's
	// columns swap), with a duplicate edge and a large negative vertex.
	f.Add([]byte{3, 2, 0x08, 3, 0, 2, 0, 2, 2, 0xff, 0x09, 2, 2, 0xff, 0xff, 0, 0x1a, 2, 0xff, 0, 0, 2})
	// Path A(x,y), B(y,z), C(z,w) under the order x,y,z,w: the kernel
	// binds y, z, x, w, so C's first level (z) meets B's narrowed one
	// and is probed.
	f.Add([]byte{0, 2, 0x08, 3, 0, 2, 2, 2, 4, 4, 0x09, 3, 2, 4, 2, 6, 4, 0, 0x0a, 3, 4, 0, 6, 2, 0, 6})
	// A star A(x,y), B(x,z), C(w,x) with a unary D(y): x binds first,
	// then D's first level meets A's narrowed y level.
	f.Add([]byte{0, 3, 0x08, 3, 0, 2, 0, 4, 2, 2, 0x18, 3, 0, 6, 2, 0, 0, 6, 0x0b, 3, 2, 0, 4, 0, 0, 2, 0x05, 2, 2, 2})
	// A path A(y,w), B(w,x), C(x,z) of bags (repeated rows) under the
	// order x,y,z,w: the kernel binds x, w, y, z, so A's first level (w)
	// meets B's narrowed one.
	f.Add([]byte{0, 2, 0x19, 4, 2, 0, 2, 0, 4, 2, 4, 2, 0x0b, 3, 0, 6, 2, 6, 0, 6, 0x18, 3, 6, 0, 6, 0, 6, 4})
	// Two relations A(x,y), B(y,z) under the order x,y,z, B the larger,
	// a repeated row on each side and a key both repeat.
	f.Add([]byte{0, 1, 0x09, 3, 0, 2, 2, 2, 0, 2, 0x0a, 4, 2, 4, 2, 4, 2, 6, 4, 0})
	// ... A the larger: HashJoin probes with A's rows.
	f.Add([]byte{0, 1, 0x09, 4, 0, 2, 2, 2, 0, 2, 4, 4, 0x0a, 2, 2, 4, 2, 4})
	// Two relations with no variable in common: the Cartesian product.
	f.Add([]byte{0, 1, 0x04, 2, 0, 2, 0x06, 3, 2, 4, 2})
	// B(y) inside A(x,y), B a bag: each A row once per copy of its B row.
	f.Add([]byte{0, 1, 0x09, 3, 0, 2, 2, 2, 4, 2, 0x06, 3, 2, 2, 4})
	// Two true nullary atoms: the empty binding, once per pair of copies.
	f.Add([]byte{0, 1, 0x00, 2, 0x00, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// Header: a permutation of the variables, then the atom count.
		names := []string{"w", "x", "y", "z"}
		perm := next()
		for i := len(names) - 1; i > 0; i-- {
			j := perm % (i + 1)
			perm /= i + 1
			names[i], names[j] = names[j], names[i]
		}
		var rels []*Relation
		used := map[string]bool{}
		for natoms := 1 + next()%4; natoms > 0; natoms-- {
			// Per atom: a shape byte (first variable, arity <= 3, stride 1
			// or 2 through the variables, repeats dropped), a row count,
			// then the rows; even bytes are values in 0..3 so atoms
			// actually join, odd ones keep a sign and a magnitude.
			shape := next()
			var attrs []string
			for c := 0; c < shape>>2&3; c++ {
				if a := names[(shape+c*(1+shape>>4&1))&3]; !slices.Contains(attrs, a) {
					attrs = append(attrs, a)
					used[a] = true
				}
			}
			r := New(string(rune('A'+len(rels))), attrs...)
			row := make([]Value, len(attrs))
			for n := next() % 6; n > 0; n-- {
				for c := range row {
					if v := next(); v&1 == 0 {
						row[c] = Value(v >> 1 & 3)
					} else {
						row[c] = Value(int8(v)) << (v >> 1 & 31)
					}
				}
				r.AppendRow(row)
			}
			rels = append(rels, r)
		}
		var varOrder []string
		for _, a := range names {
			if used[a] {
				varOrder = append(varOrder, a)
			}
		}

		if len(rels) == 2 {
			checkHashJoinOrder(t, rels[0], rels[1])
		}
		sets := make([]*Relation, len(rels))
		for i, r := range rels {
			sets[i] = r.Distinct()
		}
		got := GenericJoin("J", varOrder, sets...)

		var domain []Value
		for _, r := range rels {
			for i := 0; i < r.Len(); i++ {
				domain = append(domain, r.Row(i)...)
			}
		}
		slices.Sort(domain)
		domain = slices.Compact(domain)
		want := New("W", varOrder...)
		binding := make([]Value, len(varOrder))
		holds := func(r *Relation) bool {
			cols := make([]int, r.Arity())
			for c, a := range r.Attrs() {
				cols[c] = slices.Index(varOrder, a)
			}
			for i := 0; i < r.Len(); i++ {
				match := true
				for c, v := range r.Row(i) {
					match = match && binding[cols[c]] == v
				}
				if match {
					return true
				}
			}
			return false
		}
		var enumerate func(d int)
		enumerate = func(d int) {
			if d < len(varOrder) {
				for _, v := range domain {
					binding[d] = v
					enumerate(d + 1)
				}
				return
			}
			for _, r := range rels {
				if !holds(r) {
					return
				}
			}
			want.AppendRow(binding)
		}
		enumerate(0)
		requireSameBindings(t, "GenericJoin vs nested-loop enumeration", got, want)
	})
}

// checkHashJoinOrder compares HashJoin(r, s) row for row with its
// documented order, enumerated by nested loops: the bag join, the larger
// input's rows in order (s's on a tie) each with its matches in the
// other ascending; with no shared attribute, r's rows each with all of
// s's.
func checkHashJoinOrder(t *testing.T, r, s *Relation) {
	t.Helper()
	want := New("W", joinSchema(r, s)...)
	emit := func(rrow, srow []Value) {
		row := slices.Clone(rrow)
		for c, a := range s.Attrs() {
			if r.Col(a) < 0 {
				row = append(row, srow[c])
			}
		}
		want.AppendRow(row)
	}
	agree := func(rrow, srow []Value) bool {
		for c, a := range s.Attrs() {
			if rc := r.Col(a); rc >= 0 && rrow[rc] != srow[c] {
				return false
			}
		}
		return true
	}
	switch {
	case len(SharedAttrs(r, s)) == 0 || r.Len() > s.Len():
		for i := 0; i < r.Len(); i++ {
			for j := 0; j < s.Len(); j++ {
				if agree(r.Row(i), s.Row(j)) {
					emit(r.Row(i), s.Row(j))
				}
			}
		}
	default:
		for j := 0; j < s.Len(); j++ {
			for i := 0; i < r.Len(); i++ {
				if agree(r.Row(i), s.Row(j)) {
					emit(r.Row(i), s.Row(j))
				}
			}
		}
	}
	requireSameRows(t, "HashJoin vs its documented order", HashJoin("J", r, s), want)
}

// FuzzRowSet drives the row set against a map oracle, and Distinct,
// the boundary routine built on it, against first occurrences and
// Dedup. The first byte picks the arity, 0, 1 or 2; then each byte
// triple (op, a, b) is one step on the row (a, b), cut to the arity,
// with the bytes spread over signed values far apart. op%5 is 0 or 1 to
// add the row, 2 to ask whether the set has it, 3 to compact: drop
// every row whose first value is b mod 3 (every row at arity 0 when
// b%3 is 0) and rebuild the set over what is left, as the closure view
// does after a delete, and 4 to reserve room for a more rows. A long
// run of distinct adds grows the table through several doublings. At
// the end the set must hold exactly the oracle's rows, once each, and
// a set built over the fragment written twice must agree. Every row an
// add step offered, repeats included, makes a bag: Distinct of it must
// keep exactly the first occurrence of each row, in order, equal
// Dedup's result as a set, and return its receiver, uncopied, when the
// input is already a set.
func FuzzRowSet(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 0, 1, 2, 2, 1, 2, 2, 9, 9})
	f.Add([]byte{1, 0, 5, 0, 1, 5, 7, 2, 5, 0, 3, 1, 0, 2, 5, 9})
	f.Add([]byte{0, 0, 1, 2, 1, 3, 4, 2, 0, 0, 4, 9, 9, 3, 0, 0, 0, 1, 1})
	for arity := byte(1); arity < 3; arity++ {
		long := []byte{arity}
		for i := 0; i < 300; i++ {
			long = append(long, 0, byte(i), byte(i*7))
			if i%50 == 49 {
				long = append(long, 3, 0, byte(i))
			}
			if i%70 == 0 {
				long = append(long, 4, byte(i), 0)
			}
		}
		f.Add(long)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1200 {
			t.Skip("empty or oversized op list")
		}
		arity := int(data[0] % 3)
		attrs := []string{"a", "b"}[:arity]
		val := func(x byte) Value { return Value(int8(x)) * 1_000_003_001 }
		first := func(row []Value) int8 {
			if len(row) == 0 {
				return 0
			}
			return int8(row[0] / 1_000_003_001)
		}
		rel, bag := New("R", attrs...), New("B", attrs...)
		var set RowSet
		oracle := map[[2]int64]bool{}
		key := func(row []Value) [2]int64 {
			var k [2]int64
			copy(k[:], row)
			return k
		}
		for i := 1; i+2 < len(data); i += 3 {
			op, a, b := data[i]%5, data[i+1], data[i+2]
			row := []Value{val(a), val(b)}[:arity]
			switch op {
			case 0, 1:
				bag.AppendRow(row)
				pos, added := set.Add(rel, row)
				if added == oracle[key(row)] {
					t.Fatalf("step %d: Add(%v) added=%v with the row present=%v", i, row, added, oracle[key(row)])
				}
				if got := rel.Row(pos); key(got) != key(row) {
					t.Fatalf("step %d: Add(%v) returned position %d holding %v", i, row, pos, got)
				}
				oracle[key(row)] = true
			case 2:
				if got := set.Has(rel, row); got != oracle[key(row)] {
					t.Fatalf("step %d: Has(%v) = %v, want %v", i, row, got, oracle[key(row)])
				}
			case 3:
				kept := New("R", attrs...)
				for j := 0; j < rel.Len(); j++ {
					r := rel.Row(j)
					if first(r)%3 == int8(b%3) {
						delete(oracle, key(r))
						continue
					}
					kept.AppendRow(r)
				}
				rel = kept
				set.Build(rel)
			case 4:
				set.Reserve(rel, rel.Len()+int(a))
			}
		}
		if rel.Len() != len(oracle) || set.n != len(oracle) {
			t.Fatalf("fragment holds %d rows and the set %d, want %d", rel.Len(), set.n, len(oracle))
		}
		twice := New("R", attrs...)
		twice.AppendAll(rel)
		twice.AppendAll(rel)
		var dup RowSet
		dup.Build(twice)
		if dup.n != len(oracle) {
			t.Fatalf("set over the doubled fragment holds %d rows, want %d", dup.n, len(oracle))
		}
		for j := 0; j < rel.Len(); j++ {
			r := rel.Row(j)
			if !oracle[key(r)] || !set.Has(rel, r) || !dup.Has(twice, r) {
				t.Fatalf("row %v: oracle %v, set %v, doubled set %v", r, oracle[key(r)], set.Has(rel, r), dup.Has(twice, r))
			}
		}

		// The boundary: Distinct of the bag of offered rows.
		want := New("B", attrs...)
		seen := map[[2]int64]bool{}
		for j := 0; j < bag.Len(); j++ {
			if r := bag.Row(j); !seen[key(r)] {
				seen[key(r)] = true
				want.AppendRow(r)
			}
		}
		got := bag.Distinct()
		if got.Name() != "B" || !slices.Equal(got.Attrs(), attrs) || got.Len() != want.Len() || !slices.Equal(got.Flat(), want.Flat()) {
			t.Fatalf("Distinct of %d offered rows kept %v (%d rows), want the first occurrences %v (%d rows)", bag.Len(), got.Flat(), got.Len(), want.Flat(), want.Len())
		}
		if (got == bag) != (want.Len() == bag.Len()) {
			t.Fatalf("Distinct returned its receiver: %v, with %d of %d rows distinct", got == bag, want.Len(), bag.Len())
		}
		sorted, deduped := got.Clone(), bag.Clone()
		sorted.Sort()
		deduped.Dedup()
		if sorted.Len() != deduped.Len() || !slices.Equal(sorted.Flat(), deduped.Flat()) {
			t.Fatalf("Distinct and Dedup differ as sets: %v vs %v", sorted.Flat(), deduped.Flat())
		}
		for _, s := range []*Relation{got, deduped, rel} {
			if again := s.Distinct(); again != s {
				t.Fatalf("Distinct copied %s, a set of %d rows", s.Name(), s.Len())
			}
		}
	})
}
