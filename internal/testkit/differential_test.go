package testkit

import (
	"math"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
)

// gatherJoin is the simplest possible "parallel" algorithm: ship every
// input tuple to server 0 in one round and join there with the generic
// join. It is deliberately naive (L = IN) but exactly correct — the
// plumbing probe for the differential runner.
func gatherJoin(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, _ *stats.Known) error {
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(Renamed(a, rels[a.Name]))
	}
	atoms := q.Atoms
	c.Round("gatherjoin:collect", func(srv *mpc.Server, out *mpc.Out) {
		for _, a := range atoms {
			frag := srv.Rel(a.Name)
			if frag == nil {
				continue
			}
			st := out.Open(outName+":"+a.Name, a.Vars...)
			for i := 0; i < frag.Len(); i++ {
				st.SendRow(0, frag.Row(i))
			}
		}
	})
	vars := q.Vars()
	c.LocalStep(func(srv *mpc.Server) {
		inputs := make([]*relation.Relation, len(atoms))
		for i, a := range atoms {
			inputs[i] = srv.RelOrEmpty(outName+":"+a.Name, a.Vars...)
		}
		srv.Put(relation.GenericJoin(outName, vars, inputs...))
	})
	return nil
}

// TestRunDiffPlumbing drives the full sweep with the gather-everything
// baseline: if the runner's generation, oracle comparison, or round
// assertion plumbing were wrong, the simplest correct algorithm would
// already fail it.
func TestRunDiffPlumbing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Gen = GenConfig{Tuples: 50}
	cfg.Rounds = func(q hypergraph.Query, p int) int { return 1 }
	RunDiff(t, hypergraph.Triangle(), cfg, gatherJoin)
	RunDiff(t, hypergraph.Path(3), cfg, gatherJoin)
}

// TestTheoryBounds pins τ* and the load bound on the canonical queries.
func TestTheoryBounds(t *testing.T) {
	if tau := TauStar(hypergraph.Triangle()); math.Abs(tau-1.5) > 1e-9 {
		t.Errorf("triangle τ* = %g, want 1.5", tau)
	}
	if tau := TauStar(hypergraph.TwoWayJoin()); math.Abs(tau-1.0) > 1e-9 {
		t.Errorf("two-way join τ* = %g, want 1", tau)
	}
	// Triangle: L = IN/p^{2/3}. IN = 3000, p = 8 → 3000/4 = 750.
	if b := LoadBound(hypergraph.Triangle(), 3000, 8); math.Abs(b-750) > 1e-6 {
		t.Errorf("triangle load bound = %g, want 750", b)
	}
	// Two-way join: L = IN/p. IN = 1000, p = 10 → 100.
	if b := LoadBound(hypergraph.TwoWayJoin(), 1000, 10); math.Abs(b-100) > 1e-6 {
		t.Errorf("join2 load bound = %g, want 100", b)
	}
}

// TestGatherResult pins the driver-side gather used by every diff test:
// it must tolerate servers holding nothing and reorder columns.
func TestGatherResult(t *testing.T) {
	c := mpc.NewCluster(3, 1)
	c.Server(1).Put(relation.FromRows("out", []string{"y", "x"}, [][]relation.Value{{2, 1}}))
	got := GatherResult(c, "out", []string{"x", "y"})
	want := relation.FromRows("out", []string{"x", "y"}, [][]relation.Value{{1, 2}})
	if !BagEqual(got, want) {
		t.Fatalf("gather: %s", DiffSample(got, want))
	}
	if empty := GatherResult(c, "absent", []string{"x"}); empty.Len() != 0 {
		t.Fatalf("gather of absent relation returned %d tuples", empty.Len())
	}
}

// TestInputSize sums atom cardinalities.
func TestInputSize(t *testing.T) {
	q := hypergraph.TwoWayJoin()
	rels := map[string]*relation.Relation{
		"R": GenRelation("R", []string{"x", "y"}, SkewUniform, GenConfig{Tuples: 30}, 1),
		"S": GenRelation("S", []string{"y", "z"}, SkewUniform, GenConfig{Tuples: 70}, 2),
	}
	if in := InputSize(q, rels); in != 100 {
		t.Fatalf("InputSize = %d, want 100", in)
	}
}
