package recursive

import (
	"errors"
	"slices"
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/workload"
)

// TestClosureViewIVMDiff drives the standing closure through random
// edge mutation batches and asserts equality with a from-scratch
// fixpoint over the mutated edge set after every batch. It runs the
// full default sweep, p = 8 included: it is the only local differential
// for a standing view.
func TestClosureViewIVMDiff(t *testing.T) {
	testkit.Sweep(t, testkit.Config{}, func(t *testing.T, p int, seed int64, skew testkit.Skew) {
		var edges *relation.Relation
		if skew.Skewed() {
			edges = workload.PowerLawGraph("E", "src", "dst", 25, 50, seed)
		} else {
			edges = workload.RandomGraph("E", "src", "dst", 25, 50, seed)
		}
		c := mpc.NewCluster(p, seed)
		view, _, err := NewClosureView(c, edges, "tcv", uint64(seed)*17+uint64(p))
		if err != nil {
			t.Fatal(err)
		}
		bases := map[string]*relation.Relation{"E": edges}
		for batch := 0; batch < 3; batch++ {
			setOps := testkit.GenSetOps(bases, 12, 25, seed*1000+int64(batch)*7)
			ops := make([]EdgeOp, len(setOps))
			for i, op := range setOps {
				ops[i] = EdgeOp{Insert: op.Insert, From: op.Row[0], To: op.Row[1]}
			}
			if _, err := view.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
			bases = testkit.ApplySetOps(bases, setOps)
			want := testkit.OracleFixpoint("tcv", bases["E"])
			got := gatherSorted(c, "tcv", []string{"src", "dst"})
			if !testkit.BagEqual(got, want) {
				t.Fatalf("batch %d: maintained closure differs from recomputation: %s",
					batch, testkit.DiffSample(got, want))
			}
		}
	})
}

// TestClosureViewDeleteReinsert pins the net-effect fold on the
// closure path explicitly: a batch whose ops cancel leaves the view,
// the metering, and the edge partitions untouched.
func TestClosureViewDeleteReinsert(t *testing.T) {
	edges := workload.RandomGraph("E", "src", "dst", 15, 30, 2)
	c := mpc.NewCluster(3, 4)
	view, res, err := NewClosureView(c, edges, "tcv", 55)
	if err != nil {
		t.Fatal(err)
	}
	before := gatherSorted(c, "tcv", []string{"src", "dst"})
	rounds := c.Metrics().Rounds()
	var ops []EdgeOp
	for i := 0; i < 5 && i < edges.Len(); i++ {
		e := edges.Row(i)
		ops = append(ops,
			EdgeOp{Insert: false, From: e[0], To: e[1]},
			EdgeOp{Insert: true, From: e[0], To: e[1]})
	}
	stats, err := view.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || c.Metrics().Rounds() != rounds {
		t.Errorf("cancelled batch cost %d rounds, want 0", stats.Rounds)
	}
	after := gatherSorted(c, "tcv", []string{"src", "dst"})
	if !testkit.BagEqual(before, after) {
		t.Fatalf("cancelled batch changed the view: %s", testkit.DiffSample(after, before))
	}
	if res.OutSize != after.Len() {
		t.Errorf("view size drifted: %d vs %d", res.OutSize, after.Len())
	}
}

// TestIVMDeltaCheaperThanRecompute pins the point of IVM: a small
// insert batch against a standing closure moves strictly less
// communication than evaluating the closure from scratch on the
// mutated edges. (Deletes carry no such guarantee — DRed's over-delete
// can exceed recomputation on dense closures — so the bound is pinned
// on the insert path only.)
func TestIVMDeltaCheaperThanRecompute(t *testing.T) {
	edges := workload.RandomGraph("E", "src", "dst", 60, 150, 9)
	c := mpc.NewCluster(4, 11)
	view, _, err := NewClosureView(c, edges, "tcv", 91)
	if err != nil {
		t.Fatal(err)
	}
	preBatch := c.Metrics().TotalComm()
	ops := []EdgeOp{
		{Insert: true, From: 3, To: 57},
		{Insert: true, From: 57, To: 11},
	}
	if _, err := view.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	deltaComm := c.Metrics().TotalComm() - preBatch

	setOps := []testkit.SetOp{
		{Rel: "E", Insert: true, Row: []relation.Value{3, 57}},
		{Rel: "E", Insert: true, Row: []relation.Value{57, 11}},
	}
	next := testkit.ApplySetOps(map[string]*relation.Relation{"E": edges}, setOps)
	scratch := mpc.NewCluster(4, 11)
	if _, err := TransitiveClosure(scratch, next["E"], "tcv", 91); err != nil {
		t.Fatal(err)
	}
	fullComm := scratch.Metrics().TotalComm()
	if deltaComm >= fullComm {
		t.Errorf("insert batch moved %d words, full recomputation %d — IVM should be cheaper", deltaComm, fullComm)
	}

}

// TestFailedRoundEndsFixpointAndView: a lost round ends the fixpoint at
// its loop head, leaving the failure to the cluster's Err rather than
// iterating no-op rounds into a convergence error; and a view whose
// cluster has failed refuses every later batch with that failure,
// scattering nothing into it.
func TestFailedRoundEndsFixpointAndView(t *testing.T) {
	edges := workload.RandomGraph("E", "src", "dst", 15, 30, 2)
	c := testkit.NewChaosCluster(3, 4, "1:drop=1,attempts=1,after=1")
	res, err := TransitiveClosure(c, edges, "tc", 55)
	var f *mpc.RecoveryFailure
	if err != nil || !errors.As(c.Err(), &f) || f.Round != 1 || res.Iterations != 2 {
		t.Fatalf("fixpoint losing round 1: error %v, %d iterations, cluster Err %v", err, res.Iterations, c.Err())
	}

	c = mpc.NewCluster(3, 4)
	view, _, err := NewClosureView(c, edges, "tcv", 55)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultInjector(chaos.MustParseSchedule("1:drop=1,attempts=1"))
	insert := []EdgeOp{{Insert: true, From: 100, To: edges.Row(0)[0]}}
	if stats, err := view.ApplyBatch(insert); stats != nil || !errors.As(err, &f) || err != c.Err() {
		t.Fatalf("batch losing a round: stats %+v, error %v", stats, err)
	}
	names := make([][]string, c.P())
	for i := range names {
		names[i] = c.Server(i).RelNames()
	}
	if stats, err := view.ApplyBatch(insert); stats != nil || err != c.Err() {
		t.Fatalf("batch on a failed view: stats %+v, error %v", stats, err)
	}
	for i := range names {
		if got := c.Server(i).RelNames(); !slices.Equal(got, names[i]) {
			t.Fatalf("the refused batch changed server %d's fragments: %v, was %v", i, got, names[i])
		}
	}
}
