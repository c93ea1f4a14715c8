package experiments

import (
	"errors"
	"fmt"
	"math"

	"mpcquery/internal/cost"
	"mpcquery/internal/fractional"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/sortmpc"
	"mpcquery/internal/workload"
	"mpcquery/internal/yannakakis"
)

// E14GYM reproduces slides 64–94: serial Yannakakis is O(IN+OUT) with
// intermediates bounded by OUT; vanilla GYM needs 9 rounds on the
// star-4 query where the optimized variant needs 4.
func E14GYM() (*Table, error) {
	t := &Table{
		ID: "E14", Title: "Yannakakis / GYM on acyclic queries",
		SlideRef: "slides 64–94",
		Header:   []string{"query", "variant", "rounds", "max load L", "(IN+OUT)/p"},
	}
	const p = 8
	run := func(q hypergraph.Query, rels map[string]*relation.Relation) error {
		ok, jt := hypergraph.IsAcyclic(q)
		if !ok {
			return errors.New("query not acyclic")
		}
		in := 0
		for _, a := range q.Atoms {
			in += rels[a.Name].Len()
		}
		serialOut, st := yannakakis.Serial(jt, rels)
		outSize := serialOut.Len()
		bound := float64(in+outSize) / p
		t.AddRow(q.Name, fmt.Sprintf("serial (maxInter=%d ≤ OUT=%d)", st.MaxIntermediate, outSize),
			"-", "-", "-")
		cv := mpc.NewCluster(p, 1)
		rv := yannakakis.GYM(cv, jt, rels, "out", 42)
		t.AddRow(q.Name, "GYM vanilla", fmtInt(int64(rv.Rounds)),
			fmtInt(cv.Metrics().MaxLoad()), fmtF(bound))
		co := mpc.NewCluster(p, 1)
		ro := yannakakis.GYMOptimized(co, jt, rels, "out", 42)
		t.AddRow(q.Name, "GYM optimized", fmtInt(int64(ro.Rounds)),
			fmtInt(co.Metrics().MaxLoad()), fmtF(bound))
		return nil
	}
	// Star-4 (the slide 80–94 example).
	starRels := map[string]*relation.Relation{}
	for i, a := range hypergraph.Star(4).Atoms {
		starRels[a.Name] = workload.Uniform(a.Name, a.Vars, 4000, 1200, int64(i+1)).Distinct()
	}
	if err := run(hypergraph.Star(4), starRels); err != nil {
		return nil, err
	}
	// The slide-64 tree query.
	if err := run(hypergraph.SlideTree(), workload.SlideTreeInput(4000, 3)); err != nil {
		return nil, err
	}
	t.Note("p = %d; vanilla = one semijoin/join per round; optimized = per tree level one upward semijoin round (two when a parent has ≥ 2 children) and one downward round (none when every child there already lies with its parent), then a join phase that is local when every atom ends on one key, else one round: shipping the other groups' local joins to an anchor group's key or HyperCube, whichever receives less", p)
	return t, nil
}

// E15Crossover reproduces slide 78: GYM's load (IN+OUT)/p crosses
// HyperCube's IN/p^{1/τ*} at OUT ≈ p^{1−1/τ*}·IN. The path-4 instance
// is built so the OUT-sized intermediate must be co-partitioned in the
// final join round — GYM's load genuinely pays OUT/p.
func E15Crossover() (*Table, error) {
	const n, p = 2000, 16
	q := hypergraph.Path(4) // τ* = 2 ⇒ crossover at OUT = √p·IN
	ep, err := fractional.MaxEdgePacking(q)
	if err != nil {
		return nil, err
	}
	ok, jt := hypergraph.IsAcyclic(q)
	if !ok {
		return nil, errors.New("path-4 must be acyclic")
	}
	t := &Table{
		ID: "E15", Title: "GYM vs HyperCube crossover on path-4",
		SlideRef: "slide 78",
		Header:   []string{"OUT", "OUT/IN", "GYM L", "HC L", "predicted winner", "measured winner"},
	}
	for _, fanout := range []int{1, 8, 32, 64} {
		// R1 fans N tuples into N/fanout keys of A1 and R2 fans each key
		// back out, so R1 ⋈ R2 already has OUT = N·fanout tuples; the
		// matching R3 and R4 then force GYM to re-ship that OUT-sized
		// intermediate in a later co-partitioned join round — its load
		// genuinely pays OUT/p, as the (IN+OUT)/p bound says.
		keys := n / fanout
		r1 := relation.New("R1", "A0", "A1")
		r2 := relation.New("R2", "A1", "A2")
		r3 := relation.New("R3", "A2", "A3")
		r4 := relation.New("R4", "A3", "A4")
		for i := 0; i < n; i++ {
			r1.Append(relation.Value(i), relation.Value(i%keys))
			r2.Append(relation.Value(i%keys), relation.Value(i))
			r3.Append(relation.Value(i), relation.Value(i))
			r4.Append(relation.Value(i), relation.Value(i))
		}
		rels := map[string]*relation.Relation{"R1": r1, "R2": r2, "R3": r3, "R4": r4}
		in := r1.Len() + r2.Len() + r3.Len() + r4.Len()
		outSize := n * fanout

		cg := mpc.NewCluster(p, 1)
		yannakakis.GYM(cg, jt, rels, "out", 42)
		gymLoad := cg.Metrics().MaxLoad()

		chc := mpc.NewCluster(p, 1)
		if _, err := hypercube.Run(chc, q, rels, "out", 42, hypercube.LocalGeneric); err != nil {
			return nil, err
		}
		hcLoad := chc.Metrics().MaxLoad()

		crossover := cost.GYMCrossoverOut(float64(in), p, ep.Tau)
		predicted := "GYM"
		if float64(outSize) >= crossover {
			predicted = "HyperCube"
		}
		measured := "GYM"
		if hcLoad < gymLoad {
			measured = "HyperCube"
		}
		t.AddRow(fmtInt(int64(outSize)), fmtRatio(float64(outSize), float64(in)),
			fmtInt(gymLoad), fmtInt(hcLoad), predicted, measured)
	}
	t.Note("τ* = %.0f, crossover at OUT = p^{1-1/τ*}·IN = √%d·IN ≈ %.0f·IN", ep.Tau, p, math.Sqrt(p))
	return t, nil
}

// E16WidthDepth reproduces slides 79/95: GHDs of the same query with
// different width/depth realize the r = O(d), L = O((IN^w + OUT)/p)
// trade-off.
func E16WidthDepth() (*Table, error) {
	const n, size, p = 8, 12, 8
	rels := map[string]*relation.Relation{}
	for _, r := range workload.PathInput(n, size) {
		rels[r.Name()] = r
	}
	t := &Table{
		ID: "E16", Title: "GHD width/depth trade-off on path-8",
		SlideRef: "slides 79, 95",
		Header:   []string{"GHD", "width w", "depth d", "rounds", "measured L", "(IN^w+OUT)/p"},
	}
	in := float64(n * size)
	outSize := float64(size) // matchings
	for _, spec := range []struct {
		name string
		g    *hypergraph.GHD
	}{
		{"chain (slide 79 left)", hypergraph.PathChainGHD(n)},
		{"balanced (w=3, d≈log n)", hypergraph.PathBalancedGHD(n)},
		{"flat (w≈n/2, d=1)", hypergraph.PathFlatGHD(n)},
	} {
		c := mpc.NewCluster(p, 1)
		res := yannakakis.GHDRun(c, spec.g, rels, "out", 42)
		_, bound := cost.GHDRoundsLoad(in, outSize, spec.g.Width(), spec.g.Depth(), p)
		t.AddRow(spec.name, fmtInt(int64(spec.g.Width())), fmtInt(int64(spec.g.Depth())),
			fmtInt(int64(res.Rounds)), fmtInt(c.Metrics().MaxLoad()), fmtSci(bound))
	}
	t.Note("matching data, N = %d per atom: wider bags mean fewer rounds but bag materialization costs IN^w", size)
	return t, nil
}

// E17PSRS reproduces slides 100–102: PSRS load is Θ(N/p) while
// p ≪ N^{1/3} and degrades beyond.
func E17PSRS() (*Table, error) {
	const n = 200000
	t := &Table{
		ID: "E17", Title: "PSRS load scaling",
		SlideRef: "slides 100–102",
		Header:   []string{"p", "partition L", "N/p", "ratio", "sample-round L (p(p-1))"},
	}
	for _, p := range []int{4, 8, 16, 32, 64} {
		c := mpc.NewCluster(p, 1)
		c.ScatterRoundRobin(workload.Uniform("R", []string{"k", "v"}, n, 1<<30, int64(p)))
		sortmpc.PSRS(c, "R", []string{"k"}, "sorted")
		if err := sortmpc.VerifySorted(c, "sorted", []string{"k"}); err != nil {
			return nil, err
		}
		part := c.Metrics().MaxLoadOfRound("sort:partition")
		samp := c.Metrics().MaxLoadOfRound("sort:sample")
		t.AddRow(fmtInt(int64(p)), fmtInt(part), fmtInt(int64(n/p)),
			fmtRatio(float64(part), float64(n)/float64(p)), fmtInt(samp))
	}
	t.Note("N = %d, N^{1/3} ≈ %.0f: the p(p−1) sample broadcast is the term that eventually dominates", n, math.Cbrt(n))
	return t, nil
}

// E18SortBounds reproduces slides 104–106: bounded per-round fan-out
// forces Ω(log_L N)-style round growth, and the practical recipe
// (splitters + partition + local sort) is what the contest winners use.
func E18SortBounds() (*Table, error) {
	const n, p = 100000, 64
	t := &Table{
		ID: "E18", Title: "Sorting rounds under bounded fan-out",
		SlideRef: "slides 104–106",
		Header:   []string{"algorithm", "fan", "rounds", "max L", "total C", "analytic log_fan p"},
	}
	for _, fan := range []int{2, 4, 8, 64} {
		c := mpc.NewCluster(p, 1)
		c.ScatterRoundRobin(workload.Uniform("R", []string{"k", "v"}, n, 1<<30, int64(fan)))
		res := sortmpc.FanLimitedSort(c, "R", []string{"k"}, "sorted", fan)
		if err := sortmpc.VerifySorted(c, "sorted", []string{"k"}); err != nil {
			return nil, err
		}
		t.AddRow("fan-limited", fmtInt(int64(fan)), fmtInt(int64(res.Rounds)),
			fmtInt(c.Metrics().MaxLoad()), fmtInt(c.Metrics().TotalComm()),
			fmtF(math.Ceil(math.Log(float64(p))/math.Log(float64(fan)))))
	}
	// The practical one-shot PSRS row (the slide-106 "in practice" recipe).
	c := mpc.NewCluster(p, 1)
	c.ScatterRoundRobin(workload.Uniform("R", []string{"k", "v"}, n, 1<<30, 99))
	res := sortmpc.PSRS(c, "R", []string{"k"}, "sorted")
	t.AddRow("PSRS (practice)", "p", fmtInt(int64(res.Rounds)),
		fmtInt(c.Metrics().MaxLoad()), fmtInt(c.Metrics().TotalComm()), "1")
	t.Note("N = %d, p = %d; total C grows as N·(rounds) — the Ω(N·log_L N) communication bound in action", n, p)
	t.Note("the slide-106 contest table is not reproducible (external systems); its lesson — coarse-grained p with splitter partitioning — is the PSRS row")
	return t, nil
}
