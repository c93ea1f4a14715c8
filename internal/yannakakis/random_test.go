package yannakakis

import (
	"testing"

	"mpcquery/internal/bigjoin"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

// TestRandomAcyclicCrossValidation generates random acyclic queries and
// random data, then cross-validates every applicable engine: serial
// Yannakakis, vanilla GYM, optimized GYM, one-round HyperCube, and
// BiGJoin must all produce the same result set.
func TestRandomAcyclicCrossValidation(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		q := hypergraph.RandomAcyclic(2+int(seed%4), 3, seed)
		ok, jt := hypergraph.IsAcyclic(q)
		if !ok {
			t.Fatalf("seed %d: RandomAcyclic produced a cyclic query %s", seed, q)
		}
		rels := map[string]*relation.Relation{}
		for i, a := range q.Atoms {
			rels[a.Name] = workload.Uniform(a.Name, a.Vars, 40, 12, seed*100+int64(i)).Distinct()
		}
		want := reference(q, rels)

		// Serial.
		serialOut, _ := Serial(jt, rels)
		if serialOut.Len() != want.Len() || !serialOut.EqualAsSets(want) {
			t.Errorf("seed %d: serial differs (%d vs %d)", seed, serialOut.Len(), want.Len())
		}
		// Vanilla GYM.
		cv := mpc.NewCluster(4, 1)
		GYM(cv, jt, rels, "out", 42)
		gv := cv.Gather("out")
		if gv.Len() != want.Len() || !gv.EqualAsSets(want) {
			t.Errorf("seed %d: GYM differs (%d vs %d)", seed, gv.Len(), want.Len())
		}
		// Optimized GYM.
		co := mpc.NewCluster(4, 1)
		GYMOptimized(co, jt, rels, "out", 42)
		gopt := co.Gather("out")
		if gopt.Len() != want.Len() || !gopt.EqualAsSets(want) {
			t.Errorf("seed %d: GYMOptimized differs (%d vs %d)", seed, gopt.Len(), want.Len())
		}
		// HyperCube.
		ch := mpc.NewCluster(4, 1)
		if _, err := hypercube.Run(ch, q, rels, "out", 42, hypercube.LocalGeneric); err != nil {
			t.Fatalf("seed %d: hypercube: %v", seed, err)
		}
		gh := ch.Gather("out")
		if gh.Len() != want.Len() || !gh.EqualAsSets(want) {
			t.Errorf("seed %d: HyperCube differs (%d vs %d)", seed, gh.Len(), want.Len())
		}
		// BiGJoin.
		pl, err := bigjoin.NewPlan(q, nil)
		if err != nil {
			t.Fatalf("seed %d: bigjoin plan: %v", seed, err)
		}
		cb := mpc.NewCluster(4, 1)
		bigjoin.Run(cb, pl, rels, "out", 42)
		gb := cb.Gather("out")
		if gb.Len() != want.Len() || !gb.EqualAsSets(want.Project("w", pl.VarOrder...)) {
			t.Errorf("seed %d: BiGJoin differs (%d vs %d)", seed, gb.Len(), want.Len())
		}
	}
}

// TestRandomAcyclicGYMIntermediatesBounded: with full reduction, the
// join-phase intermediates stay within the final output size.
func TestRandomAcyclicGYMIntermediatesBounded(t *testing.T) {
	for seed := int64(20); seed < 28; seed++ {
		q := hypergraph.RandomAcyclic(4, 3, seed)
		_, jt := hypergraph.IsAcyclic(q)
		rels := map[string]*relation.Relation{}
		for i, a := range q.Atoms {
			rels[a.Name] = workload.Uniform(a.Name, a.Vars, 60, 15, seed*10+int64(i))
		}
		out, st := Serial(jt, rels)
		if out.Len() > 0 && st.MaxIntermediate > out.Len() {
			t.Errorf("seed %d: serial intermediate %d > OUT %d", seed, st.MaxIntermediate, out.Len())
		}
	}
}
