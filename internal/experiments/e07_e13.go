package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"mpcquery/internal/cost"
	"mpcquery/internal/fractional"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
	"mpcquery/internal/yannakakis"
)

// E07TriangleHC reproduces slides 34–36: one-round HyperCube triangle
// load N/p^{2/3}, its matching lower bound, and the multi-round binary
// join plan baseline.
func E07TriangleHC() (*Table, error) {
	const nv, ne = 3000, 30000
	t := &Table{
		ID: "E07", Title: "Triangle query: HyperCube vs binary plan",
		SlideRef: "slides 34–36",
		Header:   []string{"p", "HC L", "N/p^{2/3}", "1-round LB", "HC rounds", "binary L", "binary rounds"},
	}
	q := hypergraph.Triangle()
	for _, p := range []int{8, 27, 64} {
		r, s, u := workload.TriangleInput(nv, ne, 7)
		rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
		ch := mpc.NewCluster(p, 1)
		resHC, err := hypercube.Run(ch, q, rels, "out", 42, hypercube.LocalGeneric)
		if err != nil {
			return nil, err
		}
		cb := mpc.NewCluster(p, 1)
		resB := yannakakis.IterativeBinaryJoin(cb, q, rels, "out", 42)
		pred := float64(ne) / math.Pow(float64(p), 2.0/3.0)
		lb := cost.TriangleOneRoundLB(float64(ne), p)
		t.AddRow(fmtInt(int64(p)),
			fmtInt(ch.Metrics().MaxLoad()), fmtF(pred), fmtF(lb),
			fmtInt(int64(resHC.Rounds)),
			fmtInt(cb.Metrics().MaxLoad()), fmtInt(int64(resB.Rounds)))
	}
	t.Note("N = %d edges per relation; HC load counts all three atoms, hence ≈ 3·N/p^{2/3} for cubic grids", ne)
	return t, nil
}

// E08UnequalShares reproduces the slide 42–44 table: the optimal load
// is the max over edge packings, and the share grid degenerates when
// relation sizes diverge.
func E08UnequalShares() (*Table, error) {
	const p = 64
	q := hypergraph.Triangle()
	t := &Table{
		ID: "E08", Title: "Unequal-size triangle: packings and shares",
		SlideRef: "slides 42–44",
		Header:   []string{"|R|,|S|,|T|", "dominant packing", "LP load", "int shares (x,y,z)", "measured L"},
	}
	for _, sz := range []map[string]int64{
		{"R": 1 << 14, "S": 1 << 14, "T": 1 << 14},
		{"R": 1 << 17, "S": 1 << 9, "T": 1 << 9},
		{"R": 1 << 9, "S": 1 << 15, "T": 1 << 15},
	} {
		sh, err := fractional.OptimalShares(q, sz, p)
		if err != nil {
			return nil, err
		}
		packs := fractional.TopPackings(q, sz, p)
		dom := "-"
		if len(packs) > 0 {
			parts := make([]string, len(packs[0].Weights))
			for i, w := range packs[0].Weights {
				parts[i] = fmt.Sprintf("%.1f", w)
			}
			dom = "(" + strings.Join(parts, ",") + ")"
		}
		// Measure with synthetic data of those sizes.
		rels := map[string]*relation.Relation{
			"R": workload.Uniform("R", []string{"x", "y"}, int(sz["R"]), 1<<20, 1),
			"S": workload.Uniform("S", []string{"y", "z"}, int(sz["S"]), 1<<20, 2),
			"T": workload.Uniform("T", []string{"z", "x"}, int(sz["T"]), 1<<20, 3),
		}
		c := mpc.NewCluster(p, 1)
		pl := hypercube.PlanWithShares(q, sh.Integer, 42)
		for _, a := range q.Atoms {
			c.ScatterRoundRobin(rels[a.Name])
		}
		hypercube.RunWithPlan(c, pl, "out", hypercube.LocalGeneric)
		t.AddRow(
			fmt.Sprintf("%d,%d,%d", sz["R"], sz["S"], sz["T"]),
			dom, fmtF(sh.FractionalLoad),
			fmt.Sprintf("%v", sh.Integer),
			fmtInt(c.Metrics().MaxLoad()))
	}
	t.Note("p = %d; measured L sums the per-atom loads, so it tracks a small constant times the LP bound", p)
	return t, nil
}

// E09Speedup reproduces slide 45: the speedup of HyperCube degrades to
// p^{1/τ*} = p^{2/3} for triangles as p grows.
func E09Speedup() (*Table, error) {
	const nv, ne = 2000, 20000
	q := hypergraph.Triangle()
	t := &Table{
		ID: "E09", Title: "HyperCube speedup on triangles",
		SlideRef: "slides 45, 62",
		Header:   []string{"p", "measured L", "speedup L(1)/L(p)", "ideal p^{2/3}"},
	}
	var base float64
	var xs, measured, ideal []float64
	for _, p := range []int{1, 8, 27, 64, 125} {
		r, s, u := workload.TriangleInput(nv, ne, 9)
		rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
		c := mpc.NewCluster(p, 1)
		if _, err := hypercube.Run(c, q, rels, "out", 42, hypercube.LocalGeneric); err != nil {
			return nil, err
		}
		load := float64(c.Metrics().MaxLoad())
		if p == 1 {
			base = load
		}
		t.AddRow(fmtInt(int64(p)), fmtF(load), fmtRatio(base, load),
			fmtF(math.Pow(float64(p), 2.0/3.0)))
		xs = append(xs, float64(p))
		measured = append(measured, base/load)
		ideal = append(ideal, math.Pow(float64(p), 2.0/3.0))
	}
	t.Charts = append(t.Charts, &Chart{
		Title:  "slide-45 figure: HyperCube speedup vs p",
		XLabel: "p (log)", YLabel: "speedup (log)",
		LogX: true, LogY: true,
		Series: []Series{
			{Name: "measured L(1)/L(p)", Marker: '*', X: xs, Y: measured},
			{Name: "p^{2/3}", Marker: '.', X: xs, Y: ideal},
		},
	})
	t.Note("τ* = 3/2 for the triangle: doubling speed needs 2^{3/2} ≈ 2.8× more servers")
	return t, nil
}

// E10SkewHC reproduces slides 47–51: the per-pattern residual table and
// the measured load advantage of SkewHC over plain HyperCube on skewed
// triangles.
func E10SkewHC() (*Table, error) {
	const p = 64
	q := hypergraph.Triangle()
	// Heavy x hub: R and T confined to one x-slab under plain HC.
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	u := relation.New("T", "z", "x")
	const k = 4096
	for i := relation.Value(0); i < k; i++ {
		r.Append(0, i)
		u.Append(i, 0)
		s.Append(i, (i*13+5)%k)
	}
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}

	cp := mpc.NewCluster(p, 1)
	if _, err := hypercube.Run(cp, q, rels, "out", 42, hypercube.LocalGeneric); err != nil {
		return nil, err
	}
	cs := mpc.NewCluster(p, 1)
	res, err := hypercube.RunSkewHC(cs, q, rels, "out", 42, 0, hypercube.LocalGeneric)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E10", Title: "SkewHC heavy/light residual patterns",
		SlideRef: "slides 47–51",
		Header:   []string{"pattern (heavy vars)", "residual τ*", "shares (x,y,z)", "predicted L"},
	}
	for _, pat := range res.Patterns {
		var hv []string
		for _, v := range q.Vars() {
			if pat.Heavy[v] {
				hv = append(hv, v)
			}
		}
		name := "∅ (all light)"
		if len(hv) > 0 {
			name = strings.Join(hv, ",")
		}
		pred := "-"
		if pat.TauRes > 0 {
			pred = fmt.Sprintf("N/p^{1/%.2g} = %.0f", pat.TauRes,
				float64(k)/math.Pow(float64(p), 1/pat.TauRes))
		}
		t.AddRow(name, fmtF(pat.TauRes), fmt.Sprintf("%v", pat.Plan.Shares), pred)
	}
	t.Note("measured shuffle load: plain HC %d vs SkewHC %d (N = %d, p = %d)",
		cp.Metrics().MaxLoad(), cs.Metrics().MaxLoadOfRound("skewhc:shuffle"), k, p)
	psi, _ := cost.PsiStar(q)
	t.Note("ψ* = %.1f: optimal 1-round skewed load IN/p^{1/ψ*} = %.0f", psi,
		float64(3*k)/math.Pow(float64(p), 1/psi))
	return t, nil
}

// E11OneVsMulti reproduces the summary tables of slides 51–54: τ*, ψ*,
// and ρ* per query, with the implied 1-round and multi-round loads.
func E11OneVsMulti() (*Table, error) {
	const in, p = 30000.0, 64
	t := &Table{
		ID: "E11", Title: "1-round vs multi-round load exponents",
		SlideRef: "slides 51–54",
		Header: []string{"query", "τ*", "ψ*", "ρ*",
			"no-skew 1r IN/p^{1/τ*}", "skew 1r IN/p^{1/ψ*}", "multi-round IN/p^{1/ρ*}"},
	}
	for _, q := range []hypergraph.Query{
		hypergraph.Triangle(), hypergraph.TwoWayJoin(), hypergraph.RST(), hypergraph.Difficult(),
	} {
		ep, err := fractional.MaxEdgePacking(q)
		if err != nil {
			return nil, err
		}
		psi, err := cost.PsiStar(q)
		if err != nil {
			return nil, err
		}
		ec, err := fractional.MinEdgeCover(q)
		if err != nil {
			return nil, err
		}
		pf := float64(p)
		t.AddRow(q.Name, fmtF(ep.Tau), fmtF(psi), fmtF(ec.Rho),
			fmtF(in/math.Pow(pf, 1/ep.Tau)),
			fmtF(in/math.Pow(pf, 1/psi)),
			fmtF(in/math.Pow(pf, 1/ec.Rho)))
	}
	t.Note("IN = %.0f, p = %d; for acyclic queries the multi-round no-skew load is IN/p (slide 54)", in, p)
	return t, nil
}

// E12ScalabilityLimit reproduces slide 62: for the path-20 query,
// τ* = 10, so halving the load needs 2^{10} = 1024× more servers.
func E12ScalabilityLimit() (*Table, error) {
	const n = 500
	q := hypergraph.Path(20)
	ep, err := fractional.MaxEdgePacking(q)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E12", Title: "Speedup limit of the path-20 query",
		SlideRef: "slide 62",
		Header:   []string{"p", "measured HC L", "predicted N·#atoms/p^{1/10}"},
	}
	rels := map[string]*relation.Relation{}
	for _, r := range workload.PathInput(20, n) {
		rels[r.Name()] = r
	}
	for _, p := range []int{1, 1024} {
		c := mpc.NewCluster(p, 1)
		if _, err := hypercube.Run(c, q, rels, "out", 42, hypercube.LocalGeneric); err != nil {
			return nil, err
		}
		pred := 20 * float64(n) / math.Pow(float64(p), 1/ep.Tau)
		t.AddRow(fmtInt(int64(p)), fmtInt(c.Metrics().MaxLoad()), fmtF(pred))
	}
	t.Note("τ* = %.0f: 1024× more servers buy only a 2× load reduction", ep.Tau)
	return t, nil
}

// E13IntermediateBlowup reproduces slide 63: iterative binary joins can
// materialize intermediates far larger than IN, while the one-round
// algorithm only ever pays replication.
func E13IntermediateBlowup() (*Table, error) {
	const p = 16
	q := hypergraph.Path(3)
	t := &Table{
		ID: "E13", Title: "Binary-join intermediate blowup on path-3",
		SlideRef: "slide 63",
		Header:   []string{"degree d", "IN", "binary max intermediate", "binary L", "HC L", "HC C"},
	}
	// The endpoint grid each d's LP could also have picked: optimal too,
	// but with shares on the dominated endpoints A0 and A3.
	endpointGrids := map[int][]int{2: {4, 1, 2, 2}, 8: {4, 1, 1, 4}, 32: {4, 1, 4, 1}}
	var altL, altC, higher []string
	for _, d := range []int{2, 8, 32} {
		// Keys 0..K-1, each with d parallel edges at both ends: the
		// first intermediate has K·d² tuples.
		const keys = 40
		r1 := relation.New("R1", "A0", "A1")
		r2 := relation.New("R2", "A1", "A2")
		r3 := relation.New("R3", "A2", "A3")
		for kv := relation.Value(0); kv < keys; kv++ {
			for i := relation.Value(0); i < relation.Value(d); i++ {
				r1.Append(kv*1000+i, kv)
				r3.Append(kv, kv*1000+i)
			}
			r2.Append(kv, kv)
		}
		rels := map[string]*relation.Relation{"R1": r1, "R2": r2, "R3": r3}
		in := r1.Len() + r2.Len() + r3.Len()
		cb := mpc.NewCluster(p, 1)
		resB := yannakakis.IterativeBinaryJoin(cb, q, rels, "out", 42)
		ch := mpc.NewCluster(p, 1)
		res, err := hypercube.Run(ch, q, rels, "out", 42, hypercube.LocalGeneric)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(res.Plan.Shares, []int{1, 4, 4, 1}) {
			return nil, fmt.Errorf("E13: d = %d: HC shares %v, want the dominated endpoints at 1: [1 4 4 1]", d, res.Plan.Shares)
		}
		ca := mpc.NewCluster(p, 1)
		for _, a := range q.Atoms {
			ca.ScatterRoundRobin(rels[a.Name])
		}
		hypercube.RunWithPlan(ca, hypercube.PlanWithShares(q, endpointGrids[d], 42), "out", hypercube.LocalGeneric)
		if ch.Metrics().TotalComm() >= ca.Metrics().TotalComm() {
			return nil, fmt.Errorf("E13: d = %d: HC C = %d, not below the endpoint grid's %d", d, ch.Metrics().TotalComm(), ca.Metrics().TotalComm())
		}
		altL = append(altL, fmtInt(ca.Metrics().MaxLoad()))
		altC = append(altC, fmtInt(ca.Metrics().TotalComm()))
		if ch.Metrics().MaxLoad() > ca.Metrics().MaxLoad() {
			higher = append(higher, fmtInt(int64(d)))
		}
		t.AddRow(fmtInt(int64(d)), fmtInt(int64(in)),
			fmtInt(int64(resB.MaxIntermediate)), fmtInt(cb.Metrics().MaxLoad()),
			fmtInt(ch.Metrics().MaxLoad()), fmtInt(ch.Metrics().TotalComm()))
	}
	t.Note("OUT = K·d² here, so the blowup is also the output — slide 63's point is that T1 can exceed p·IN, favoring 1-round replication")
	t.Note("HC's grid is 1 × 4 × 4 × 1 over (A0, A1, A2, A3) at every d: the endpoints A0 and A3 are dominated (A1 and A2 occur in every atom they do), so they get share 1. "+
		"The LP's other optimal vertices (4, 1, 2, 2), (4, 1, 1, 4) and (4, 1, 4, 1) at d = 2, 8, 32 spend shares on the endpoints and ship more: C = %s", strings.Join(altC, ", "))
	t.Note("Those grids' L is %s, so HC's L is higher at d = %s: on the 4 × 4 grid R1 and R3 are hashed only on their 40 join keys, d tuples each, a hash variance the expected-load argument does not cover", strings.Join(altL, ", "), strings.Join(higher, " and "))
	return t, nil
}
