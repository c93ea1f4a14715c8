package experiments

import (
	"errors"
	"fmt"
	"time"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/fractional"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/matmul"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/sortmpc"
	"mpcquery/internal/workload"
)

// The A-series tables are the ablations DESIGN.md calls out: design
// choices inside our implementations whose impact the slides imply but
// never measure.

// A01ShareRounding compares the two integer-rounding strategies for
// HyperCube shares on unequal-size triangles: floor rounding can leave
// most of the cluster idle when the fractional optimum sits between
// powers.
func A01ShareRounding() (*Table, error) {
	const p = 60 // deliberately not a perfect cube
	q := hypergraph.Triangle()
	t := &Table{
		ID: "A01", Title: "Integer share rounding",
		SlideRef: "DESIGN.md ablation 1 (slide 38's LP + rounding)",
		Header:   []string{"|R|,|S|,|T|", "fractional shares", "floor", "greedy", "floor L", "greedy L"},
	}
	for _, sz := range []map[string]int64{
		{"R": 1 << 14, "S": 1 << 14, "T": 1 << 14},
		{"R": 1 << 15, "S": 1 << 13, "T": 1 << 11},
	} {
		sh, err := fractional.OptimalShares(q, sz, p)
		if err != nil {
			return nil, err
		}
		floor := fractional.RoundSharesFloor(sh.Fractional, p)
		greedy := fractional.RoundSharesGreedy(sh.Fractional, p)
		rels := map[string]*relation.Relation{
			"R": workload.Uniform("R", []string{"x", "y"}, int(sz["R"]), 1<<20, 1),
			"S": workload.Uniform("S", []string{"y", "z"}, int(sz["S"]), 1<<20, 2),
			"T": workload.Uniform("T", []string{"z", "x"}, int(sz["T"]), 1<<20, 3),
		}
		load := func(shares []int) int64 {
			c := mpc.NewCluster(p, 1)
			pl := hypercube.PlanWithShares(q, shares, 42)
			for _, a := range q.Atoms {
				c.ScatterRoundRobin(rels[a.Name])
			}
			hypercube.RunWithPlan(c, pl, "out", hypercube.LocalGeneric)
			return c.Metrics().MaxLoad()
		}
		t.AddRow(
			fmt.Sprintf("%d,%d,%d", sz["R"], sz["S"], sz["T"]),
			fmt.Sprintf("%.2f %.2f %.2f", sh.Fractional[0], sh.Fractional[1], sh.Fractional[2]),
			fmt.Sprintf("%v", floor), fmt.Sprintf("%v", greedy),
			fmtInt(load(floor)), fmtInt(load(greedy)))
	}
	t.Note("p = %d; greedy rounding uses leftover server budget to shrink the dominant atom's load", p)
	return t, nil
}

// A02LocalJoin compares the two local evaluation strategies under an
// identical HyperCube shuffle — the local join kernel as one multiway
// generic join, and as a left-deep chain of two-input joins that
// materializes every intermediate: the slide-32 point that the local
// algorithm is orthogonal to the parallel one, quantified.
func A02LocalJoin() (*Table, error) {
	const nv, ne, p = 3000, 40000, 8
	rels := func() map[string]*relation.Relation {
		r, s, u := workload.TriangleInput(nv, ne, 31)
		return map[string]*relation.Relation{"R": r, "S": s, "T": u}
	}()
	t := &Table{
		ID: "A02", Title: "Local join algorithm under HyperCube",
		SlideRef:     "DESIGN.md ablation 2 (slide 32)",
		Header:       []string{"local algorithm", "output", "local-eval wall time", "shuffle L (identical)"},
		RunDependent: []string{"local-eval wall time"},
	}
	var wantLen int
	for _, spec := range []struct {
		name string
		alg  hypercube.LocalAlg
	}{
		{"generic join (WCO)", hypercube.LocalGeneric},
		{"binary hash plans", hypercube.LocalBinary},
	} {
		c := mpc.NewCluster(p, 1)
		start := time.Now()
		if _, err := hypercube.Run(c, hypergraph.Triangle(), rels, "out", 42, spec.alg); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		outLen := c.TotalLen("out")
		if wantLen == 0 {
			wantLen = outLen
		} else if outLen != wantLen {
			return nil, errors.New("local algorithms disagree")
		}
		t.AddRow(spec.name, fmtInt(int64(outLen)),
			elapsed.Round(time.Millisecond).String(), fmtInt(c.Metrics().MaxLoad()))
	}
	t.Note("N = %d edges, p = %d; wall time includes the (identical) shuffle — differences are local evaluation", ne, p)
	t.Note("binary plans materialize the R⋈S intermediate locally; the WCO generic join never does")
	return t, nil
}

// A03Splitters compares PSRS's classical regular sampling with the
// random-sampling variant at several sample budgets, measuring
// partition imbalance.
func A03Splitters() (*Table, error) {
	const n, p = 200000, 16
	t := &Table{
		ID: "A03", Title: "PSRS splitter selection",
		SlideRef: "DESIGN.md ablation 4 (slide 102)",
		Header:   []string{"strategy", "samples/server", "partition L", "L/(N/p)", "sample-round L"},
	}
	runOne := func(strategy, samples string, sort func(c *mpc.Cluster)) error {
		c := mpc.NewCluster(p, 1)
		c.ScatterRoundRobin(workload.Uniform("R", []string{"k", "v"}, n, 1<<30, 7))
		sort(c)
		if err := sortmpc.VerifySorted(c, "sorted", []string{"k"}); err != nil {
			return err
		}
		part := c.Metrics().MaxLoadOfRound("sort:partition")
		t.AddRow(strategy, samples, fmtInt(part), fmtRatio(float64(part), float64(n)/p),
			fmtInt(c.Metrics().MaxLoadOfRound("sort:sample")))
		return nil
	}
	if err := runOne("regular (p-1 per server)", "-", func(c *mpc.Cluster) {
		sortmpc.PSRS(c, "R", []string{"k"}, "sorted")
	}); err != nil {
		return nil, err
	}
	for _, s := range []int{4, 16, 64, 256} {
		if err := runOne("random", fmtInt(int64(s)), func(c *mpc.Cluster) {
			sortmpc.PSRSRandomSample(c, "R", []string{"k"}, "sorted", s)
		}); err != nil {
			return nil, err
		}
	}
	t.Note("N = %d, p = %d; more random samples buy balance at the cost of sample-round load", n, p)
	return t, nil
}

// A04MatMulGroups sweeps the square-block group count g at fixed H:
// more groups halve the multiply rounds (slide 119) but add a combine
// round and replicate partial sums.
func A04MatMulGroups() (*Table, error) {
	const n, h = 64, 8
	a, b := matmul.Random(n, n, 8, 5), matmul.Random(n, n, 8, 6)
	want := matmul.Multiply(a, b)
	t := &Table{
		ID: "A04", Title: "Square-block matmul group count",
		SlideRef: "DESIGN.md ablation 5 (slides 115–121)",
		Header:   []string{"g", "p = g·H²", "rounds", "L", "C", "correct"},
	}
	for _, g := range []int{1, 2, 4, 8} {
		c := mpc.NewCluster(g*h*h, 1)
		res, err := matmul.SquareBlock(c, a, b, h, g)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmtInt(int64(g)), fmtInt(int64(g*h*h)),
			fmtInt(int64(res.Rounds)), fmtInt(c.Metrics().MaxLoad()),
			fmtInt(c.Metrics().TotalComm()), fmt.Sprintf("%v", res.C.Equal(want)))
	}
	t.Note("n = %d, H = %d: g trades processors for rounds at constant per-round load", n, h)
	return t, nil
}

// A05Combiner measures the effect of local pre-aggregation on the
// distributed group-by (the slide-52 workload).
func A05Combiner() (*Table, error) {
	const n, p = 100000, 16
	rel := workload.Uniform("sales", []string{"g1", "g2", "v"}, n, 25, 13)
	t := &Table{
		ID: "A05", Title: "Aggregation combiner",
		SlideRef: "DESIGN.md ablation (slide 52 workload)",
		Header:   []string{"combiner", "shuffle L", "total C", "groups"},
	}
	for _, with := range []bool{true, false} {
		c := mpc.NewCluster(p, 1)
		c.ScatterRoundRobin(rel)
		res, err := aggregate.Run(c, aggregate.Spec{
			Rel: "sales", GroupBy: []string{"g1", "g2"}, Fn: relation.Sum,
			AggAttr: "v", OutAttr: "total", OutRel: "agg", Seed: 3, NoCombiner: !with,
		})
		if err != nil {
			return nil, err
		}
		name := "on"
		if !with {
			name = "off"
		}
		t.AddRow(name, fmtInt(c.Metrics().MaxLoad()), fmtInt(c.Metrics().TotalComm()),
			fmtInt(int64(res.Groups)))
	}
	t.Note("N = %d rows into 625 groups, p = %d: the combiner makes communication proportional to groups, not rows", n, p)
	return t, nil
}

// A06HLSemijoins compares the three skew strategies for the triangle on
// a hot-z input: plain HyperCube (degrades), one-round SkewHC, and the
// multi-round HL+Semijoins of slides 58–59.
func A06HLSemijoins() (*Table, error) {
	const k, p = 4096, 64
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	u := relation.New("T", "z", "x")
	for i := relation.Value(1); i <= k; i++ {
		s.Append(i, 0) // hot z = 0
		u.Append(0, i)
		r.Append(i, i)
	}
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	want := relation.GenericJoin("want", []string{"x", "y", "z"},
		r.Rename("R"), s.Rename("S"), u.Rename("T"))
	t := &Table{
		ID: "A06", Title: "Skewed-triangle strategies",
		SlideRef: "slides 46–59",
		Header:   []string{"algorithm", "rounds", "shuffle L", "total C", "correct"},
	}
	addRow := func(name string, c *mpc.Cluster, rounds int, loadRound string) {
		got := c.Gather("out")
		ok := got.EqualAsSets(want) && got.Len() == want.Len()
		t.AddRow(name, fmtInt(int64(rounds)),
			fmtInt(c.Metrics().MaxLoadOfRound(loadRound)),
			fmtInt(c.Metrics().TotalComm()), fmt.Sprintf("%v", ok))
	}
	cp := mpc.NewCluster(p, 1)
	resP, err := hypercube.Run(cp, hypergraph.Triangle(), rels, "out", 42, hypercube.LocalGeneric)
	if err != nil {
		return nil, err
	}
	addRow("plain HyperCube", cp, resP.Rounds, "hypercube:shuffle")
	cs := mpc.NewCluster(p, 1)
	resS, err := hypercube.RunSkewHC(cs, hypergraph.Triangle(), rels, "out", 42, 0, hypercube.LocalGeneric)
	if err != nil {
		return nil, err
	}
	addRow("SkewHC (1-round patterns)", cs, resS.Rounds, "skewhc:shuffle")
	ch := mpc.NewCluster(p, 1)
	resH, err := hypercube.HeavyLightTriangle(ch, rels, "out", 42)
	if err != nil {
		return nil, err
	}
	addRow("HL+Semijoins (multi-round)", ch, resH.Rounds, "hl:shuffle")
	t.Note("N = %d, p = %d, one hot z value; both skew-aware strategies restore the IN/p^{2/3}-class load", k, p)
	return t, nil
}
