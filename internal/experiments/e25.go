package experiments

import (
	"fmt"

	"mpcquery/internal/mpc"
	"mpcquery/internal/recursive"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

// E25RecursiveRounds evaluates semi-naive transitive closure on graphs
// whose diameter varies independently of size: chains (diameter = n−1),
// random digraphs (logarithmic diameter), and a heavy-tailed graph.
// Unlike every one-round or constant-round algorithm in this repo, the
// round count of a fixpoint is data-dependent — exactly one metered
// round (extend) per semi-naive iteration, and the iteration count is
// the longest shortest-path the closure has to grow, not the input
// size. The chain rows pin that: a quarter of the edges of the equal-n
// random row and half its closure, yet ~17× the rounds. Σ Lᵢ sums the
// per-round max loads: the work of a round-by-round critical path.
func E25RecursiveRounds() (*Table, error) {
	const p = 8
	t := &Table{
		ID: "E25", Title: "Semi-naive fixpoint: rounds vs iterations vs diameter",
		SlideRef: "semi-naive Datalog evaluation as synchronous MPC rounds",
		Header:   []string{"graph", "edges", "closure size", "iterations", "rounds", "max load L", "Σ Lᵢ", "total comm C"},
	}
	chain := func(n int) *relation.Relation {
		e := relation.New("E", "src", "dst")
		for i := 0; i < n-1; i++ {
			e.Append(relation.Value(i), relation.Value(i+1))
		}
		return e
	}
	cases := []struct {
		name  string
		edges *relation.Relation
	}{
		{"chain n=60", chain(60)},
		{"chain n=120", chain(120)},
		{"random n=60 m=240", workload.RandomGraph("E", "src", "dst", 60, 240, 5)},
		{"random n=120 m=480", workload.RandomGraph("E", "src", "dst", 120, 480, 5)},
		// Preferential attachment repeats edges; inputs are sets.
		{"powerlaw n=120 m=480", workload.PowerLawGraph("E", "src", "dst", 120, 480, 5)},
	}
	for _, cse := range cases {
		c := mpc.NewCluster(p, 1)
		res, err := recursive.TransitiveClosure(c, cse.edges, "tc", 7)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cse.name, err)
		}
		m := c.Metrics()
		var sumL int64
		for _, st := range m.RoundStats() {
			sumL += st.MaxRecv()
		}
		t.AddRow(cse.name, fmtInt(int64(cse.edges.Len())), fmtInt(int64(res.OutSize)),
			fmtInt(int64(res.Iterations)), fmtInt(int64(res.Rounds)),
			fmtInt(m.MaxLoad()), fmtInt(sumL), fmtInt(m.TotalComm()))
	}
	t.Note("p = %d; every row meters exactly 1 round per iteration", p)
	t.Note("iterations follow the longest shortest path (chain: n−1; random digraph: O(log n)),")
	t.Note("so the chain rows pay ~17× the rounds of equal-n random graphs — the r vs L trade-off")
	t.Note("of the multi-round chapters, now with r chosen by the data instead of the algorithm")
	return t, nil
}

// E26IVMDeltaScaling maintains a standing transitive closure under
// insert batches of doubling size and compares the communication of
// the maintenance batch against recomputing the closure from scratch
// on the mutated edge set. Delta maintenance touches work proportional
// to what the batch actually derives, so its cost grows with the batch
// while recomputation pays the full base every time.
func E26IVMDeltaScaling() (*Table, error) {
	const p = 8
	t := &Table{
		ID: "E26", Title: "IVM: maintenance comm vs batch size, against full recomputation",
		SlideRef: "delta/semi-naive rules applied to view maintenance",
		Header:   []string{"batch (inserts)", "delta comm C", "recompute comm C", "delta/recompute", "delta rounds", "recompute rounds"},
	}
	const n, m = 100, 260
	base := workload.RandomGraph("E", "src", "dst", n, m, 11)
	for _, batch := range []int{1, 2, 4, 8, 16, 32} {
		c := mpc.NewCluster(p, 1)
		view, _, err := recursive.NewClosureView(c, base, "tcv", 13)
		if err != nil {
			return nil, fmt.Errorf("batch=%d: %w", batch, err)
		}
		pre := c.Metrics().TotalComm()
		preRounds := c.Metrics().Rounds()
		ops := make([]recursive.EdgeOp, batch)
		mutated := base.Clone()
		for i := range ops {
			from, to := relation.Value(1000+i), relation.Value((i*7)%n)
			ops[i] = recursive.EdgeOp{Insert: true, From: from, To: to}
			mutated.AppendRow([]relation.Value{from, to})
		}
		if _, err := view.ApplyBatch(ops); err != nil {
			return nil, fmt.Errorf("batch=%d apply: %w", batch, err)
		}
		deltaComm := c.Metrics().TotalComm() - pre
		deltaRounds := c.Metrics().Rounds() - preRounds

		sc := mpc.NewCluster(p, 1)
		res, err := recursive.TransitiveClosure(sc, mutated, "tc", 13)
		if err != nil {
			return nil, fmt.Errorf("batch=%d recompute: %w", batch, err)
		}
		full := sc.Metrics().TotalComm()
		t.AddRow(fmtInt(int64(batch)), fmtInt(deltaComm), fmtInt(full),
			fmt.Sprintf("%.3f", float64(deltaComm)/float64(full)),
			fmtInt(int64(deltaRounds)), fmtInt(int64(res.Rounds)))
	}
	t.Note("base graph n = %d vertices, m = %d edges, p = %d; inserts attach fresh source vertices", n, m, p)
	t.Note("each batch is applied to a fresh standing view of the same base, so rows are comparable;")
	t.Note("delete batches carry no such bound — DRed's over-delete can exceed recomputation on dense closures")
	return t, nil
}
