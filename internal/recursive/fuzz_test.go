package recursive

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// FuzzSemiNaiveTC decodes the input as an edge list — consecutive byte
// pairs, each value folded into a small vertex domain so paths actually
// compose — and checks the distributed semi-naive fixpoint against the
// single-machine naive oracle. Duplicate edges, self-loops, and empty
// inputs all fall out of the encoding for free; the round invariant
// (exactly one metered round per iteration) is asserted on every run.
func FuzzSemiNaiveTC(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{1, 2, 2, 3, 3, 1})          // 3-cycle
	f.Add([]byte{5, 5})                      // self-loop
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4})    // chain
	f.Add([]byte{7, 8, 7, 8, 8, 7, 9})       // duplicates + odd tail
	f.Add([]byte{0, 0, 0, 1, 1, 0, 2, 2, 3}) // loops into a 2-cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("oversized edge list")
		}
		edges := relation.New("E", "src", "dst")
		for i := 0; i+1 < len(data); i += 2 {
			edges.Append(relation.Value(data[i]%16), relation.Value(data[i+1]%16))
		}
		p := 2 + int(uint(len(data))%3)
		c := mpc.NewCluster(p, int64(len(data)))
		res, err := TransitiveClosure(c, edges, "tc", uint64(len(data))+3)
		if err != nil {
			t.Fatalf("transitive closure: %v", err)
		}
		if res.Rounds != res.Iterations {
			t.Fatalf("rounds = %d over %d iterations, want exactly 1 per iteration", res.Rounds, res.Iterations)
		}
		want := testkit.OracleFixpoint("tc", edges)
		got := gatherSorted(c, "tc", []string{"src", "dst"})
		if !testkit.BagEqual(got, want) {
			t.Fatalf("closure differs from naive fixpoint: %s", testkit.DiffSample(got, want))
		}
	})
}

// FuzzClosureViewBatch decodes the input as a small graph plus one
// mutation batch — consecutive byte triples (tag, from, to), each value
// folded into a 12-vertex domain: tag%3 == 0 makes the pair a base
// edge, 1 an insert and 2 a delete. Deletes with and without a
// surviving derivation, inserts of present edges, deletes of absent
// ones and delete-then-reinsert pairs all fall out of the encoding.
// The maintained closure must equal the naive fixpoint of the mutated
// edge set.
func FuzzClosureViewBatch(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0, 1, 2, 0, 2, 3, 0, 1, 3, 2, 2, 3})          // (1,3) survives the delete of (2,3)
	f.Add([]byte{0, 1, 2, 1, 2, 3, 1, 3, 1})                   // inserts close a cycle
	f.Add([]byte{0, 1, 2, 0, 2, 3, 2, 1, 2, 1, 1, 2})          // delete then reinsert folds away
	f.Add([]byte{0, 5, 5, 0, 5, 6, 2, 5, 5, 2, 7, 8, 1, 6, 5}) // self-loop deleted, absent edge deleted
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 240 {
			t.Skip("oversized graph")
		}
		edges := relation.New("E", "src", "dst")
		var ops []EdgeOp
		var setOps []testkit.SetOp
		for i := 0; i+2 < len(data); i += 3 {
			from, to := relation.Value(data[i+1]%12), relation.Value(data[i+2]%12)
			if data[i]%3 == 0 {
				edges.Append(from, to)
				continue
			}
			insert := data[i]%3 == 1
			ops = append(ops, EdgeOp{Insert: insert, From: from, To: to})
			setOps = append(setOps, testkit.SetOp{Rel: "E", Insert: insert, Row: []relation.Value{from, to}})
		}
		p := 2 + int(uint(len(data))%3)
		c := mpc.NewCluster(p, int64(len(data)))
		view, _, err := NewClosureView(c, edges, "tcv", uint64(len(data))+5)
		if err != nil {
			t.Fatalf("closure view: %v", err)
		}
		if _, err := view.ApplyBatch(ops); err != nil {
			t.Fatalf("apply batch: %v", err)
		}
		mutated := testkit.ApplySetOps(map[string]*relation.Relation{"E": edges}, setOps)["E"]
		want := testkit.OracleFixpoint("tcv", mutated)
		got := gatherSorted(c, "tcv", []string{"src", "dst"})
		if !testkit.BagEqual(got, want) {
			t.Fatalf("maintained closure differs from the naive fixpoint of the mutated edges: %s", testkit.DiffSample(got, want))
		}
	})
}

// FuzzRowSet drives the row set against a map oracle. The first byte
// picks the arity, 1 or 2; then each byte triple (op, a, b) is one step
// on the row (a, b), or (a) at arity 1, with the bytes spread over
// signed values far apart. op%4 is 0 or 1 to add the row, 2 to ask
// whether the set has it, and 3 to compact: drop every row whose first
// byte is b mod 3 and rebuild the set over what is left, as the
// closure view does after a delete. A long run of distinct adds grows
// the table through several doublings. At the end the set must hold
// exactly the oracle's rows, once each, and a set built over the
// fragment written twice must agree.
func FuzzRowSet(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 0, 1, 2, 2, 1, 2, 2, 9, 9})
	f.Add([]byte{1, 0, 5, 0, 1, 5, 7, 2, 5, 0, 3, 1, 0, 2, 5, 9})
	for arity := byte(0); arity < 2; arity++ {
		long := []byte{arity}
		for i := 0; i < 300; i++ {
			long = append(long, 0, byte(i), byte(i*7))
			if i%50 == 49 {
				long = append(long, 3, 0, byte(i))
			}
		}
		f.Add(long)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1200 {
			t.Skip("empty or oversized op list")
		}
		arity := 1 + int(data[0]%2)
		attrs := []string{"a", "b"}[:arity]
		val := func(x byte) relation.Value { return relation.Value(int8(x)) * 1_000_003_001 }
		rel := relation.New("R", attrs...)
		var set rowSet
		oracle := map[[2]int64]bool{}
		key := func(row []relation.Value) [2]int64 {
			var k [2]int64
			copy(k[:], row)
			return k
		}
		for i := 1; i+2 < len(data); i += 3 {
			op, a, b := data[i]%4, data[i+1], data[i+2]
			row := []relation.Value{val(a), val(b)}[:arity]
			switch op {
			case 0, 1:
				pos, added := set.add(rel, row)
				if added == oracle[key(row)] {
					t.Fatalf("step %d: add(%v) added=%v with the row present=%v", i, row, added, oracle[key(row)])
				}
				if got := rel.Row(pos); key(got) != key(row) {
					t.Fatalf("step %d: add(%v) returned position %d holding %v", i, row, pos, got)
				}
				oracle[key(row)] = true
			case 2:
				if got := set.has(rel, row); got != oracle[key(row)] {
					t.Fatalf("step %d: has(%v) = %v, want %v", i, row, got, oracle[key(row)])
				}
			case 3:
				kept := relation.New("R", attrs...)
				for j := 0; j < rel.Len(); j++ {
					r := rel.Row(j)
					if int8(r[0]/1_000_003_001)%3 == int8(b%3) {
						delete(oracle, key(r))
						continue
					}
					kept.AppendRow(r)
				}
				rel = kept
				set.build(rel)
			}
		}
		if rel.Len() != len(oracle) || set.n != len(oracle) {
			t.Fatalf("fragment holds %d rows and the set %d, want %d", rel.Len(), set.n, len(oracle))
		}
		twice := relation.New("R", attrs...)
		twice.AppendAll(rel)
		twice.AppendAll(rel)
		var dup rowSet
		dup.build(twice)
		if dup.n != len(oracle) {
			t.Fatalf("set over the doubled fragment holds %d rows, want %d", dup.n, len(oracle))
		}
		for j := 0; j < rel.Len(); j++ {
			r := rel.Row(j)
			if !oracle[key(r)] || !set.has(rel, r) || !dup.has(twice, r) {
				t.Fatalf("row %v: oracle %v, set %v, doubled set %v", r, oracle[key(r)], set.has(rel, r), dup.has(twice, r))
			}
		}
	})
}
