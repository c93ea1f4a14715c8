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
// single-machine naive oracle. Self-loops and empty inputs fall out of
// the encoding for free; duplicate edges do too, and the list is made a
// set (relation.Relation.Distinct), as every input is where it enters
// the system. The round invariant (exactly one metered round per
// iteration) is asserted on every run.
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
		edges = edges.Distinct()
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
// Repeated base edges do too; the base is made a set, as every input is
// where it enters the system. The maintained closure must equal the
// naive fixpoint of the mutated edge set.
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
		edges = edges.Distinct()
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
