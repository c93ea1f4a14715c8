package yannakakis

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// FuzzGYMOptimized runs optimized GYM on a random acyclic query
// (hypergraph.RandomAcyclic: 2 to 6 atoms, arity ≤ 3) over small
// relations drawn from data on a three-value domain, each with its first
// row repeated and then made a set, as relations enter the system, at p
// in [1, 9]. The gathered output must hold Serial's rows, each once,
// and the measured r must equal gymOptRounds: both fail when the
// downward pass takes an atom to lie where it does not.
func FuzzGYMOptimized(f *testing.F) {
	// Query seeds 3 and 7 with 5 atoms are TestRandomAcyclicCrossValidation's
	// trees whose downward pass re-keys a child that has children of its own.
	f.Add(int64(3), uint8(3), uint8(4), []byte{1, 2, 0, 1, 2, 2, 0, 1, 1, 0, 2, 1})
	f.Add(int64(7), uint8(3), uint8(8), []byte{5, 0, 1, 2, 0, 1, 1, 2, 2, 0, 0, 1, 2})
	f.Add(int64(1), uint8(0), uint8(0), []byte{})
	f.Add(int64(11), uint8(4), uint8(2), []byte{7, 1, 1, 1, 0, 2, 0, 2, 1, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, qseed int64, atoms, p uint8, data []byte) {
		q := hypergraph.RandomAcyclic(2+int(atoms%5), 3, qseed)
		jt, err := acyclicConnected(q)
		if err != nil {
			t.Skip(err)
		}
		k := 0
		next := func() relation.Value {
			k++
			if len(data) == 0 {
				return relation.Value(k % 3)
			}
			return relation.Value((int(data[k%len(data)]) + k/len(data)) % 3)
		}
		rels := map[string]*relation.Relation{}
		for _, a := range q.Atoms {
			r := relation.New(a.Name, a.Vars...)
			row := make([]relation.Value, len(a.Vars))
			for n := 1 + int(next())*3 + int(next()); n > 0; n-- {
				for j := range row {
					row[j] = next()
				}
				r.AppendRow(row)
			}
			r.AppendRow(r.Row(0))
			rels[a.Name] = r.Distinct()
		}
		want, _ := Serial(jt, rels)
		c := mpc.NewCluster(1+int(p%9), 1)
		res := GYMOptimized(c, jt, rels, "out", 42)
		got := c.Gather("out")
		if got.Len() != want.Len() || !got.EqualAsSets(want) {
			t.Fatalf("%s at p = %d: %d rows, Serial has %d", q, c.P(), got.Len(), want.Len())
		}
		if r := gymOptRounds(jt); res.Rounds != r {
			t.Fatalf("%s at p = %d: r = %d, gymOptRounds = %d", q, c.P(), res.Rounds, r)
		}
	})
}
