package yannakakis

import (
	"slices"
	"strings"
	"testing"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/trace"
	"mpcquery/internal/workload"
)

// reference evaluates the query locally with the generic join.
func reference(q hypergraph.Query, rels map[string]*relation.Relation) *relation.Relation {
	inputs := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		r := rels[a.Name]
		renamed := relation.New(a.Name, a.Vars...)
		for j := 0; j < r.Len(); j++ {
			renamed.AppendRow(r.Row(j))
		}
		inputs[i] = renamed
	}
	return relation.GenericJoin("want", q.Vars(), inputs...)
}

func joinTreeOf(t *testing.T, q hypergraph.Query) *hypergraph.JoinTree {
	t.Helper()
	ok, jt := hypergraph.IsAcyclic(q)
	if !ok {
		t.Fatalf("%s should be acyclic", q.Name)
	}
	return jt
}

func TestSerialSlideTree(t *testing.T) {
	q := hypergraph.SlideTree()
	rels := workload.SlideTreeInput(60, 5)
	out, st := Serial(joinTreeOf(t, q), rels)
	want := reference(q, rels)
	if out.Len() != want.Len() || !out.EqualAsSets(want) {
		t.Fatalf("serial Yannakakis wrong: got %d, want %d", out.Len(), want.Len())
	}
	// O(n) semijoins: 2 per edge = 8 for 5 atoms.
	if st.Semijoins != 8 {
		t.Fatalf("semijoins = %d, want 8", st.Semijoins)
	}
	if st.Joins != 4 {
		t.Fatalf("joins = %d, want 4", st.Joins)
	}
}

// TestSerialIntermediatesBoundedByOutput is the heart of the Yannakakis
// guarantee (slide 77): after full reduction every intermediate join has
// at most OUT tuples.
func TestSerialIntermediatesBoundedByOutput(t *testing.T) {
	q := hypergraph.SlideTree()
	for seed := int64(0); seed < 5; seed++ {
		rels := workload.SlideTreeInput(80, seed)
		out, st := Serial(joinTreeOf(t, q), rels)
		if st.MaxIntermediate > out.Len() && st.MaxIntermediate > 0 && out.Len() > 0 {
			t.Fatalf("seed %d: intermediate %d > OUT %d", seed, st.MaxIntermediate, out.Len())
		}
	}
}

func TestSerialPathAndStar(t *testing.T) {
	for _, q := range []hypergraph.Query{hypergraph.Path(5), hypergraph.Star(4), hypergraph.RST()} {
		rels := map[string]*relation.Relation{}
		switch q.Name {
		case "rst":
			rels["R"] = workload.Uniform("R", []string{"x"}, 40, 30, 1).Distinct()
			rels["S"] = workload.Uniform("S", []string{"x", "y"}, 60, 30, 2).Distinct()
			rels["T"] = workload.Uniform("T", []string{"y"}, 40, 30, 3).Distinct()
		default:
			for i, a := range q.Atoms {
				rels[a.Name] = workload.Uniform(a.Name, a.Vars, 50, 25, int64(i+1)).Distinct()
			}
		}
		out, _ := Serial(joinTreeOf(t, q), rels)
		want := reference(q, rels)
		if out.Len() != want.Len() || !out.EqualAsSets(want) {
			t.Errorf("%s: serial result differs (got %d want %d)", q.Name, out.Len(), want.Len())
		}
	}
}

func TestGYMCorrect(t *testing.T) {
	q := hypergraph.SlideTree()
	rels := workload.SlideTreeInput(60, 7)
	want := reference(q, rels)
	c := mpc.NewCluster(8, 1)
	res := GYM(c, joinTreeOf(t, q), rels, "out", 42)
	got := c.Gather("out")
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("GYM wrong: got %d, want %d", got.Len(), want.Len())
	}
	// Vanilla rounds: one per semijoin (8) + one per join (4) = 12.
	if res.Rounds != 12 {
		t.Fatalf("vanilla GYM rounds = %d, want 12", res.Rounds)
	}
}

func TestGYMOptimizedCorrectAndFewerRounds(t *testing.T) {
	q := hypergraph.SlideTree()
	rels := workload.SlideTreeInput(60, 9)
	want := reference(q, rels)

	cv := mpc.NewCluster(8, 1)
	rv := GYM(cv, joinTreeOf(t, q), rels, "out", 42)

	co := mpc.NewCluster(8, 1)
	ro := GYMOptimized(co, joinTreeOf(t, q), rels, "out", 42)

	got := co.Gather("out")
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("optimized GYM wrong: got %d, want %d", got.Len(), want.Len())
	}
	if ro.Rounds >= rv.Rounds {
		t.Fatalf("optimized rounds %d should beat vanilla %d", ro.Rounds, rv.Rounds)
	}
}

// Slide 80 vs slide 94: on the star-4 query vanilla GYM takes 9 rounds
// (3 up + 3 down + 3 join) and optimized takes 4 (semijoin, intersect,
// down, join).
func TestGYMStarRoundCounts(t *testing.T) {
	q := hypergraph.Star(4)
	rels := map[string]*relation.Relation{}
	for i, a := range q.Atoms {
		rels[a.Name] = workload.Uniform(a.Name, a.Vars, 60, 20, int64(i+1)).Distinct()
	}
	want := reference(q, rels)

	cv := mpc.NewCluster(8, 1)
	rv := GYM(cv, joinTreeOf(t, q), rels, "out", 42)
	gv := cv.Gather("out")
	if gv.Len() != want.Len() || !gv.EqualAsSets(want) {
		t.Fatal("vanilla GYM wrong on star")
	}
	if rv.Rounds != 9 {
		t.Fatalf("vanilla star-4 rounds = %d, slide says 9", rv.Rounds)
	}

	co := mpc.NewCluster(8, 1)
	ro := GYMOptimized(co, joinTreeOf(t, q), rels, "out", 42)
	g := co.Gather("out")
	if g.Len() != want.Len() || !g.EqualAsSets(want) {
		t.Fatal("optimized GYM wrong on star")
	}
	if ro.Rounds != 4 {
		t.Fatalf("optimized star-4 rounds = %d, slide says 4", ro.Rounds)
	}
}

// gymOptShapes are the trees whose level plans the gym-opt tests pin:
// one-child levels (Path(2), Star(2), the inner levels of longer
// paths), two-child parents (Path(3) to Path(5), Star(3)), k ≥ 3
// children (Star(4)) and a mix (SlideTree).
func gymOptShapes() []hypergraph.Query {
	return []hypergraph.Query{
		hypergraph.Path(2), hypergraph.Path(3), hypergraph.Path(4), hypergraph.Path(5),
		hypergraph.Star(2), hypergraph.Star(3), hypergraph.Star(4),
		hypergraph.SlideTree(),
	}
}

// runGYMOpt runs GYMOptimized on uniform inputs for q at p = 8 and
// checks its output.
func runGYMOpt(t *testing.T, q hypergraph.Query) (*mpc.Cluster, *hypergraph.JoinTree, map[string]*relation.Relation) {
	t.Helper()
	rels := map[string]*relation.Relation{}
	for i, a := range q.Atoms {
		rels[a.Name] = workload.Uniform(a.Name, a.Vars, 60, 20, int64(i+1)).Distinct()
	}
	jt := joinTreeOf(t, q)
	c := mpc.NewCluster(8, 1)
	GYMOptimized(c, jt, rels, "out", 42)
	got := c.Gather("out")
	if want := reference(q, rels); got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("%s: optimized GYM wrong", q.Name)
	}
	return c, jt, rels
}

// TestGYMOptimizedPredictedRounds: the cost mirror's R is the measured r.
func TestGYMOptimizedPredictedRounds(t *testing.T) {
	gymOpt := cost.Lookup(Plannables(), "gym-opt")
	for _, q := range gymOptShapes() {
		c, _, rels := runGYMOpt(t, q)
		est, err := gymOpt.Predict(&cost.QueryStats{Query: q, P: c.P(), IN: int64(len(rels) * 60), OutEst: 1})
		if err != nil {
			t.Fatal(err)
		}
		if est.R != c.Metrics().Rounds() {
			t.Errorf("%s: predicted R = %d, measured r = %d", q.Name, est.R, c.Metrics().Rounds())
		}
	}
}

// TestGYMOptimizedShipsParentOncePerRound reads the round ledger: each
// upward round ships a parent with k ≤ 2 children on at most one stream,
// at most its input size, and k rounds ship it in all.
func TestGYMOptimizedShipsParentOncePerRound(t *testing.T) {
	for _, q := range gymOptShapes() {
		c, jt, rels := runGYMOpt(t, q)
		for i, a := range q.Atoms {
			k := len(jt.Children[i])
			if k == 0 || k > 2 {
				continue
			}
			shipped := 0
			for _, rs := range c.Metrics().RoundStats() {
				if !strings.HasPrefix(rs.Name, "gymopt:up") {
					continue
				}
				streams := map[string]bool{}
				var tuples int64
				for _, s := range rs.StreamSends {
					if strings.HasPrefix(s.Stream, rs.Name+":"+a.Name+"|") && !strings.HasSuffix(s.Stream, ":k") {
						streams[s.Stream] = true
						tuples += s.Tuples
					}
				}
				if len(streams) > 1 || tuples > int64(rels[a.Name].Len()) {
					t.Errorf("%s: round %s ships %s (%d children) on %d streams, %d tuples of %d", q.Name, rs.Name, a.Name, k, len(streams), tuples, rels[a.Name].Len())
				}
				if len(streams) == 1 {
					shipped++
				}
			}
			if shipped != k {
				t.Errorf("%s: %s (%d children) shipped in %d upward rounds, want %d", q.Name, a.Name, k, shipped, k)
			}
		}
	}
}

// TestGYMOptimizedCarriedChildStays reads the round ledger. A child of
// a parent with k ≤ 2 children is received whole in exactly one upward
// round, on each server exactly its rows that hash there on the
// variables it shares with the parent, and is shipped again in no
// downward round, which sends it at most its parent's keys. A level
// whose children all lie with their parent runs no downward round.
func TestGYMOptimizedCarriedChildStays(t *testing.T) {
	// Downward rounds per shape, by hand from each join tree: a level
	// needs one unless every child there lies on the key its parent lies
	// on. Path(2)'s and Star(2)'s root lies on its one child's key, and
	// Star(3)'s on its second child's, which is the first child's too.
	downRounds := map[string]int{"path2": 0, "path3": 1, "path4": 2, "path5": 2, "star2": 0, "star3": 0, "star4": 1, "slidetree": 2}
	for _, q := range gymOptShapes() {
		c, jt, rels := runGYMOpt(t, q)
		stats := c.Metrics().RoundStats()
		down := 0
		for _, rs := range stats {
			if strings.HasPrefix(rs.Name, "gymopt:down") {
				down++
			}
		}
		if down != downRounds[q.Name] {
			t.Errorf("%s: %d downward rounds, want %d", q.Name, down, downRounds[q.Name])
		}
		reduced := upwardReduced(jt, rels)
		for ch, p := range jt.Parent {
			if p < 0 || len(jt.Children[p]) > 2 {
				continue
			}
			cn, pn := q.Atoms[ch].Name, q.Atoms[p].Name
			if reduced[ch].Len() == 0 {
				t.Fatalf("%s: the inputs reduce %s to nothing", q.Name, cn)
			}
			key := sharedOf(q.Atoms[p].Vars, q.Atoms[ch].Vars)
			want := make([]int64, c.P())
			cols := reduced[ch].MustCols(key)
			for i := 0; i < reduced[ch].Len(); i++ {
				want[mpc.Owner(reduced[ch].Row(i), cols, mpc.HashSeed(42, key...), c.P())]++
			}
			carried := 0
			for _, rs := range stats {
				up := strings.HasPrefix(rs.Name, "gymopt:up")
				got := make([]int64, c.P())
				for _, s := range rs.StreamRecvs {
					switch {
					case s.Stream == rs.Name+":"+cn+"^"+pn:
						got[s.Server] += s.Tuples
					case !up && strings.HasPrefix(s.Stream, rs.Name+":"+cn+"|") && !strings.HasSuffix(s.Stream, ":k"):
						t.Errorf("%s: round %s ships carried child %s again on %s", q.Name, rs.Name, cn, s.Stream)
					}
				}
				if !slices.ContainsFunc(got, func(n int64) bool { return n > 0 }) {
					continue
				}
				carried++
				if !up || !slices.Equal(got, want) {
					t.Errorf("%s: round %s receives %s carried to %s as %v per server, want %v in an upward round", q.Name, rs.Name, cn, pn, got, want)
				}
			}
			if carried != 1 {
				t.Errorf("%s: %s carried to %s in %d rounds, want 1", q.Name, cn, pn, carried)
			}
		}
	}
}

// TestGYMOptimizedJoinPhase pins the join phase gymOptimized picks from
// where the passes leave the atoms, and that r stays gymOptRounds. A
// choice between HyperCube and shipping is one Cluster.Choose, in r's
// one control step, whose counted (L, C) for its pick is what the
// round it runs meters:
//
//   - path3 on distinct uniform inputs, the shape of the benchmark's
//     GYM op: R1 lies on A1, R2 and R3 on A2, so R1 anchors and the join
//     round ships only the local R2 ⋈ R3, whose rows are the answer's
//     distinct (A1, A2, A3), and receives less than HyperCube would;
//   - path2 and star3: every atom ends on one key, so the join is local
//     and runs no round;
//   - path3 Zipf: shipping R2 ⋈ R3 would receive more than HyperCube, so
//     HyperCube runs, at the (L, r, C) it measured before the choice.
func TestGYMOptimizedJoinPhase(t *testing.T) {
	joinRounds := func(c *mpc.Cluster) (ship, grid *mpc.RoundStat) {
		stats := c.Metrics().RoundStats()
		for i := range stats {
			switch stats[i].Name {
			case "gymopt:join":
				ship = &stats[i]
			case "hypercube:shuffle":
				grid = &stats[i]
			}
		}
		return ship, grid
	}
	decided := func(c *mpc.Cluster, pick int, ran *mpc.RoundStat) {
		t.Helper()
		var cands []trace.Event
		for _, ev := range c.Metrics().Events() {
			if ev.Kind == trace.KindChoose {
				cands = append(cands, ev)
			}
		}
		if len(cands) != 2 || cands[pick].Frags != 1 || c.Metrics().ControlSteps() != 1 {
			t.Fatalf("candidates %+v in %d control steps; want two, picking %d", cands, c.Metrics().ControlSteps(), pick)
		}
		if d := cands[pick]; d.MaxRecv != ran.MaxRecv() || d.Tuples != ran.TotalRecv() {
			t.Errorf("the pick counted (L %d, C %d); its round metered (%d, %d)", d.MaxRecv, d.Tuples, ran.MaxRecv(), ran.TotalRecv())
		}
	}

	q := hypergraph.Path(3)
	jt := joinTreeOf(t, q)
	rels := map[string]*relation.Relation{}
	for i, a := range q.Atoms {
		rels[a.Name] = workload.Uniform(a.Name, a.Vars, 2000, 2000, int64(i+1)).Distinct()
	}
	c := mpc.NewCluster(8, 1)
	res := GYMOptimized(c, jt, rels, "out", 1)
	want, _ := Serial(jt, rels)
	if got := c.Gather("out"); got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatalf("path3: optimized GYM wrong: %d rows, Serial has %d", got.Len(), want.Len())
	}
	ship, grid := joinRounds(c)
	if ship == nil || grid != nil {
		t.Fatalf("path3: join round shipped %v, HyperCube ran %v; want the shipped join alone", ship != nil, grid != nil)
	}
	decided(c, 1, ship)
	st := int64(want.Project("st", "A1", "A2", "A3").Distinct().Len())
	if ship.TotalRecv() != st {
		t.Errorf("path3: join round C = %d, want the %d rows of the local R2 ⋈ R3", ship.TotalRecv(), st)
	}
	for _, s := range ship.StreamSends {
		if strings.HasSuffix(s.Stream, ":R1") {
			t.Errorf("path3: join round ships the anchor R1 on %s", s.Stream)
		}
	}
	if r := gymOptRounds(jt); res.Rounds != r || r != 4 {
		t.Errorf("path3: r = %d, gymOptRounds = %d, want 4", res.Rounds, r)
	}

	for _, q := range []hypergraph.Query{hypergraph.Path(2), hypergraph.Star(3)} {
		c, jt, _ := runGYMOpt(t, q)
		if ship, grid := joinRounds(c); ship != nil || grid != nil {
			t.Errorf("%s: a join round ran; every atom ends on one key", q.Name)
		}
		if r := gymOptRounds(jt); c.Metrics().Rounds() != r {
			t.Errorf("%s: r = %d, gymOptRounds = %d", q.Name, c.Metrics().Rounds(), r)
		}
		if c.Metrics().ControlWords() != 0 {
			t.Errorf("%s: a local join phase exchanged %d control words", q.Name, c.Metrics().ControlWords())
		}
	}

	rels = testkit.GenInstance(q, testkit.SkewZipf, testkit.GenConfig{Tuples: 1000}, 1)
	c = mpc.NewCluster(16, 1)
	GYMOptimized(c, jt, rels, "out", 1)
	ship, grid = joinRounds(c)
	if ship != nil || grid == nil {
		t.Fatalf("path3 Zipf: HyperCube did not run the join phase")
	}
	decided(c, 0, grid)
	m := c.Metrics()
	if got := [3]int64{m.MaxLoad(), int64(m.Rounds()), m.TotalComm()}; got != [3]int64{447, 4, 5610} {
		t.Errorf("path3 Zipf: (L, r, C) = %v, want HyperCube's [447 4 5610]", got)
	}
}

// upwardReduced returns each atom of jt as the upward semijoin pass
// leaves it: reduced by each of its children in turn. On set inputs
// the intersection of a k ≥ 3 parent's keyed copies leaves the same
// rows.
func upwardReduced(jt *hypergraph.JoinTree, rels map[string]*relation.Relation) []*relation.Relation {
	q := jt.Query
	bound := cost.BindAtoms(q, rels)
	cur := make([]*relation.Relation, len(q.Atoms))
	for _, i := range jt.PostOrder() {
		cur[i] = bound[q.Atoms[i].Name]
		for _, ch := range jt.Children[i] {
			cur[i] = relation.Semijoin(q.Atoms[i].Name, cur[i], cur[ch])
		}
	}
	return cur
}

func TestIterativeBinaryJoinCorrect(t *testing.T) {
	q := hypergraph.Path(4)
	rels := map[string]*relation.Relation{}
	for _, r := range workload.PathInput(4, 50) {
		rels[r.Name()] = r
	}
	c := mpc.NewCluster(8, 1)
	res := IterativeBinaryJoin(c, q, rels, "out", 42)
	got := c.Gather("out")
	if got.Len() != 50 {
		t.Fatalf("path-4 matching join = %d, want 50", got.Len())
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want n-1 = 3", res.Rounds)
	}
	// Matching inputs: intermediates never grow (slide 57).
	if res.MaxIntermediate > 50 {
		t.Fatalf("matching data intermediates grew: %d", res.MaxIntermediate)
	}
}

// TestIterativeBinaryJoinBlowup reproduces slide 63: with join keys of
// degree d on both sides of R1 ⋈ R2 the intermediate T1 has d² tuples
// per chain, of which R3 keeps d — far larger than IN or OUT would
// suggest per step.
func TestIterativeBinaryJoinBlowup(t *testing.T) {
	q := hypergraph.Path(3)
	const d = 12
	// Each Ri: keys 0..4 × multiplicity d on both sides of the chain.
	mk := func(name, a1, a2 string) *relation.Relation {
		r := relation.New(name, a1, a2)
		for k := relation.Value(0); k < 5; k++ {
			for i := relation.Value(0); i < d; i++ {
				r.Append(k*100+i, k)
				_ = i
			}
		}
		return r
	}
	// Build R1(A0,A1), R2(A1,A2), R3(A2,A3) so that A1 has degree d on
	// both sides and R3 matches one A2 value of each chain.
	r1 := relation.New("R1", "A0", "A1")
	r2 := relation.New("R2", "A1", "A2")
	r3 := relation.New("R3", "A2", "A3")
	for k := relation.Value(0); k < 5; k++ {
		for i := relation.Value(0); i < d; i++ {
			r1.Append(k*1000+i, k)
			r2.Append(k, k*1000+i)
		}
		r3.Append(k*1000, k)
	}
	_ = mk
	rels := map[string]*relation.Relation{"R1": r1, "R2": r2, "R3": r3}
	c := mpc.NewCluster(8, 1)
	res := IterativeBinaryJoin(c, q, rels, "out", 42)
	in := r1.Len() + r2.Len() + r3.Len()
	if res.MaxIntermediate <= in {
		t.Fatalf("expected intermediate blowup: max %d ≤ IN %d", res.MaxIntermediate, in)
	}
	want := reference(q, rels)
	got := c.Gather("out")
	if got.Len() != want.Len() || !got.EqualAsSets(want) {
		t.Fatal("blowup case still must be correct")
	}
}

func TestGHDRunPathDecompositions(t *testing.T) {
	const n = 4
	q := hypergraph.Path(n)
	rels := map[string]*relation.Relation{}
	for i, a := range q.Atoms {
		rels[a.Name] = workload.Uniform(a.Name, a.Vars, 30, 10, int64(i+1)).Distinct()
	}
	want := reference(q, rels)
	for name, g := range map[string]*hypergraph.GHD{
		"chain":    hypergraph.PathChainGHD(n),
		"flat":     hypergraph.PathFlatGHD(n),
		"balanced": hypergraph.PathBalancedGHD(n),
	} {
		c := mpc.NewCluster(8, 1)
		GHDRun(c, g, rels, "out", 42)
		got := c.Gather("out")
		if got.Len() != want.Len() || !got.EqualAsSets(want) {
			t.Errorf("%s GHD run wrong: got %d, want %d", name, got.Len(), want.Len())
		}
	}
}

func TestGHDRoundsScaleWithDepth(t *testing.T) {
	const n = 8
	q := hypergraph.Path(n)
	rels := map[string]*relation.Relation{}
	for _, r := range workload.PathInput(n, 20) {
		rels[r.Name()] = r
	}
	_ = q
	runRounds := func(g *hypergraph.GHD) int {
		c := mpc.NewCluster(8, 1)
		res := GHDRun(c, g, rels, "out", 42)
		return res.Rounds
	}
	chain := runRounds(hypergraph.PathChainGHD(n))
	flat := runRounds(hypergraph.PathFlatGHD(n))
	if flat >= chain {
		t.Fatalf("flat GHD rounds %d should beat chain GHD rounds %d", flat, chain)
	}
}

func TestSemijoinRoundReduces(t *testing.T) {
	// Direct unit test of the distributed semijoin primitive.
	c := mpc.NewCluster(4, 1)
	target := relation.FromRows("T", []string{"x", "y"}, [][]relation.Value{
		{1, 10}, {2, 20}, {3, 30},
	})
	reducer := relation.FromRows("Rd", []string{"y", "z"}, [][]relation.Value{
		{10, 0}, {30, 0},
	})
	c.ScatterRoundRobin(target)
	c.ScatterRoundRobin(reducer)
	q := hypergraph.NewQuery("q", hypergraph.Atom{Name: "T", Vars: []string{"x", "y"}}, hypergraph.Atom{Name: "Rd", Vars: []string{"y", "z"}})
	semijoin(c, "semi", q, 0, 1, 7)
	got := c.Gather("T")
	if got.Len() != 2 {
		t.Fatalf("semijoin kept %d, want 2", got.Len())
	}
}

func TestJoinRoundSharedValidation(t *testing.T) {
	c := mpc.NewCluster(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: no shared attrs")
		}
	}()
	joinRound(c, "j", "A", "B", "out", []string{"x"}, []string{"y"}, 1)
}
