package plan

import (
	"math/rand"
	"strings"
	"testing"

	"mpcquery/internal/core"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
)

// genRel builds a deterministic random relation; identical arguments
// yield identical contents.
func genRel(name string, attrs []string, n int, domain, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(name, attrs...)
	row := make([]relation.Value, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(rng.Int63n(domain))
		}
		r.Append(row...)
	}
	return r
}

func triangleInstance(seed int64) map[string]*relation.Relation {
	return map[string]*relation.Relation{
		"R": genRel("R", []string{"x", "y"}, 90, 30, seed),
		"S": genRel("S", []string{"y", "z"}, 90, 30, seed+1),
		"T": genRel("T", []string{"z", "x"}, 90, 30, seed+2),
	}
}

func TestTriangleCandidates(t *testing.T) {
	q := hypergraph.Triangle()
	pl, err := For(q, triangleInstance(7), 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applicable := 0
	byAlg := map[string]Candidate{}
	for _, c := range pl.Candidates {
		byAlg[c.Alg] = c
		if c.Applicable {
			applicable++
			if c.Est.R < 1 {
				t.Errorf("%s: applicable candidate predicts %d rounds", c.Alg, c.Est.R)
			}
			if c.Est.L <= 0 || c.Est.C <= 0 {
				t.Errorf("%s: degenerate estimate %v", c.Alg, c.Est)
			}
		}
	}
	if applicable < 3 {
		t.Fatalf("triangle should have ≥ 3 applicable candidates, got %d\n%s", applicable, pl.Explain())
	}
	for _, alg := range []string{"hypercube", "skewhc", "hl-triangle", "bigjoin", "binaryplan"} {
		if !byAlg[alg].Applicable {
			t.Errorf("%s should apply to the triangle: %s", alg, byAlg[alg].Rejection)
		}
	}
	// The triangle is cyclic: GYM and the two-way strategies must be out.
	for _, alg := range []string{"gym", "gym-opt", "hashjoin", "broadcast"} {
		if byAlg[alg].Applicable {
			t.Errorf("%s should not apply to the triangle", alg)
		}
	}
	if !strings.Contains(byAlg["gym"].Rejection, "cyclic") {
		t.Errorf("gym rejection should mention cyclicity, got %q", byAlg["gym"].Rejection)
	}
	if pl.Best() == nil {
		t.Fatal("no chosen plan")
	}
	// Every applicable loser must carry a rejection reason.
	for i, c := range pl.Candidates {
		if i != pl.Chosen && c.Applicable && c.Rejection == "" {
			t.Errorf("loser %s has no rejection reason", c.Alg)
		}
	}
}

func TestExplainDeterministic(t *testing.T) {
	q := hypergraph.Triangle()
	render := func() string {
		pl, err := For(q, triangleInstance(11), 8, Options{MaxRounds: 4})
		if err != nil {
			t.Fatal(err)
		}
		return pl.Explain()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("EXPLAIN is not byte-deterministic:\n--- first\n%s\n--- second\n%s", a, b)
	}
	for _, want := range []string{"query triangle", "candidates:", "chosen:", "round budget 4", "L≈", "r=", "C≈"} {
		if !strings.Contains(a, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, a)
		}
	}
}

func TestSingleAtomQuery(t *testing.T) {
	q := hypergraph.NewQuery("single", hypergraph.Atom{Name: "R", Vars: []string{"x", "y"}})
	rels := map[string]*relation.Relation{"R": genRel("R", []string{"x", "y"}, 40, 100, 3)}
	pl, err := For(q, rels, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	best := pl.Best()
	if best.Est.R != 0 || best.Est.L != 0 {
		t.Errorf("single atom should plan to zero communication, chose %s with %s", best.Alg, best.Est)
	}
	res, err := pl.Execute(core.NewEngine(4, 3), rels)
	if err != nil {
		t.Fatal(err)
	}
	want := rels["R"].Clone()
	want.Dedup()
	if !res.Exec.Output.EqualAsSets(want) {
		t.Errorf("single-atom output should be the relation itself")
	}
}

func TestCartesianProduct(t *testing.T) {
	q := hypergraph.NewQuery("cross",
		hypergraph.Atom{Name: "R", Vars: []string{"x", "y"}},
		hypergraph.Atom{Name: "S", Vars: []string{"z", "w"}})
	rels := map[string]*relation.Relation{
		"R": relation.FromRows("R", []string{"x", "y"}, [][]relation.Value{{1, 2}, {3, 4}}),
		"S": relation.FromRows("S", []string{"z", "w"}, [][]relation.Value{{5, 6}, {7, 8}, {9, 10}}),
	}
	pl, err := For(q, rels, 4, Options{})
	if err != nil {
		t.Fatalf("a Cartesian product should still be plannable (HyperCube handles it): %v", err)
	}
	byAlg := map[string]Candidate{}
	for _, c := range pl.Candidates {
		byAlg[c.Alg] = c
	}
	// GYO calls the product acyclic, but the tree is disconnected; the
	// semijoin-based strategies must refuse rather than mis-evaluate.
	for _, alg := range []string{"gym", "gym-opt", "binaryplan"} {
		if byAlg[alg].Applicable {
			t.Errorf("%s must reject the Cartesian product", alg)
		}
	}
	if !byAlg["hypercube"].Applicable {
		t.Fatalf("hypercube should handle the Cartesian product: %s", byAlg["hypercube"].Rejection)
	}
	res, err := pl.Execute(core.NewEngine(4, 1), rels)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Exec.Output.Len(); got != 6 {
		t.Errorf("cross product of 2×3 rows: got %d output tuples, want 6", got)
	}
}

func TestAcyclicVsCyclic(t *testing.T) {
	path := hypergraph.Path(3)
	rels := map[string]*relation.Relation{}
	for i, a := range path.Atoms {
		rels[a.Name] = genRel(a.Name, a.Vars, 60, 20, int64(i+1))
	}
	pl, err := For(path, rels, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range pl.Candidates {
		if c.Applicable {
			seen[c.Alg] = true
		}
	}
	for _, alg := range []string{"gym", "gym-opt", "binaryplan", "hypercube", "bigjoin"} {
		if !seen[alg] {
			t.Errorf("%s should apply to the acyclic path query", alg)
		}
	}
	if seen["hl-triangle"] {
		t.Error("hl-triangle must only apply to the triangle")
	}
}

func TestRoundBudget(t *testing.T) {
	q := hypergraph.Triangle()
	pl, err := For(q, triangleInstance(5), 8, Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best := pl.Best(); best.Est.R > 1 {
		t.Fatalf("round budget 1 violated: chose %s with r=%d", best.Alg, best.Est.R)
	}
	budgetRejected := false
	for _, c := range pl.Candidates {
		if c.Applicable && strings.Contains(c.Rejection, "round budget") {
			budgetRejected = true
		}
	}
	if !budgetRejected {
		t.Error("expected at least one candidate rejected by the round budget")
	}
}

func TestCollectStatsHeavyHitter(t *testing.T) {
	q := hypergraph.TwoWayJoin()
	r := relation.New("R", "x", "y")
	for i := 0; i < 100; i++ {
		r.Append(relation.Value(i), 7) // y = 7 always: one heavy value
	}
	s := genRel("S", []string{"y", "z"}, 100, 50, 9)
	st, err := CollectStats(q, map[string]*relation.Relation{"R": r, "S": s}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.HeavyVars["y"] == 0 {
		t.Error("planted heavy hitter on y not detected")
	}
	if st.MaxDeg["R"]["y"] != 100 {
		t.Errorf("dmax(R.y) = %d, want 100", st.MaxDeg["R"]["y"])
	}
	if st.Distinct["R"]["x"] != 100 {
		t.Errorf("V(R.x) = %d, want 100", st.Distinct["R"]["x"])
	}
	if !st.Skewed() {
		t.Error("Skewed() should report true")
	}
}

func TestAggregateOptionAddsRound(t *testing.T) {
	q := hypergraph.TwoWayJoin()
	rels := map[string]*relation.Relation{
		"R": genRel("R", []string{"x", "y"}, 80, 25, 1),
		"S": genRel("S", []string{"y", "z"}, 80, 25, 2),
	}
	spec := &core.AggregateSpec{GroupBy: []string{"x"}, Fn: relation.Count, OutAttr: "n"}
	base, err := For(q, rels, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := For(q, rels, 4, Options{Aggregate: spec})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range agg.Candidates {
		if !c.Applicable {
			continue
		}
		// Same algorithm in the base plan must predict exactly one round less.
		for _, b := range base.Candidates {
			if b.Alg == c.Alg && b.Applicable && c.Est.R != b.Est.R+1 {
				t.Errorf("%s: aggregate plan predicts r=%d, base r=%d (want +1)", c.Alg, c.Est.R, b.Est.R)
			}
		}
		_ = i
	}
	res, err := agg.Execute(core.NewEngine(4, 1), rels)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Exec.Output.Attrs(); len(got) != 2 || got[0] != "x" || got[1] != "n" {
		t.Errorf("aggregate output schema = %v, want [x n]", got)
	}
}

func TestPredictionRatioReported(t *testing.T) {
	q := hypergraph.Triangle()
	rels := triangleInstance(13)
	pl, err := For(q, rels, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Execute(core.NewEngine(4, 13), rels)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredL <= 0 {
		t.Fatalf("expected metered load > 0, got %d", res.MeasuredL)
	}
	if res.Ratio <= 0 {
		t.Fatalf("prediction ratio should be positive, got %g", res.Ratio)
	}
	if !strings.Contains(res.String(), "ratio") {
		t.Errorf("Result.String should mention the ratio: %s", res.String())
	}
}

// TestCapacityOptions pins the heterogeneous planning path: candidates
// are costed against the profile's effective parallelism, the EXPLAIN
// listing names the profile, and Execute routes through the
// capacity-aware executor with the answer unchanged.
func TestCapacityOptions(t *testing.T) {
	q := hypergraph.Triangle()
	rels := triangleInstance(7)
	caps := []float64{4, 1, 1, 1, 1, 1, 1, 1} // effective p ≈ 2.75
	uniform, err := For(q, rels, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	het, err := For(q, rels, 8, Options{Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	// Deflating p to 2 must raise per-server load predictions.
	ub, hb := uniform.Best(), het.Best()
	if hb.Est.L <= ub.Est.L {
		t.Errorf("het plan predicts L %.4g, not above uniform %.4g at full p", hb.Est.L, ub.Est.L)
	}
	if !strings.Contains(het.Explain(), "effective p") {
		t.Errorf("EXPLAIN does not name the capacity profile:\n%s", het.Explain())
	}
	if strings.Contains(uniform.Explain(), "capacities") {
		t.Errorf("uniform EXPLAIN mentions capacities:\n%s", uniform.Explain())
	}

	eng := core.NewEngine(8, 7)
	res, err := het.Execute(eng, rels)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Capacities != nil {
		t.Error("Execute mutated the caller's engine")
	}
	want := core.Reference(q, rels)
	got := res.Exec.Output
	if got.Len() != want.Len() {
		t.Errorf("capacity-aware execution: %d rows, reference %d", got.Len(), want.Len())
	}
}
