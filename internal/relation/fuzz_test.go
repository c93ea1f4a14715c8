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
// when keys collide in the table's hash buckets.
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
	})
}

// FuzzGenericJoin fuzzes the trie join against the definition of a
// conjunctive query: bytes decode to a variable order over up to four
// variables and one to four relations of arity 0-3 over them, duplicate
// rows and nullary atoms included; the oracle enumerates every
// assignment of the active domain to the variables, keeps those every
// atom contains, and so lists the bindings once each. The kernel must
// return the same bindings, each exactly once, columns in the variable
// order; it promises no row order, so both sides are compared sorted.
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

		got := GenericJoin("J", varOrder, rels...)

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
