package main

import (
	"fmt"
	"sync"
	"time"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/core"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/join2"
	"mpcquery/internal/mpc"
	"mpcquery/internal/mpcnet"
	"mpcquery/internal/plan"
	"mpcquery/internal/recursive"
	"mpcquery/internal/relation"
	"mpcquery/internal/service"
	"mpcquery/internal/testkit"
	"mpcquery/internal/trace"
	"mpcquery/internal/yannakakis"
)

// prober times calls into one layer's public functions and keeps the
// durations by name.
type prober struct {
	ms map[string][]float64
}

// time runs f reps times and records each duration under name. prepare, when
// non-nil, runs untimed before each repetition.
func (p *prober) time(name string, reps int, prepare, f func()) {
	for i := 0; i < reps; i++ {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		f()
		p.ms[name] = append(p.ms[name], ms(time.Since(t0)))
	}
}

func (p *prober) median(name string) float64 { return median(p.ms[name]) }

// shuffleRound sends every tuple of the cluster's resident relation rel to
// the server its second column hashes to: the routing loop every hash-
// partitioned algorithm in the repository runs.
func shuffleRound(c *mpc.Cluster, rel string, attrs []string) {
	p := c.P()
	c.Round("probe:shuffle", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel(rel)
		if frag == nil {
			return
		}
		st := out.Open("shuffled", attrs...)
		for i := 0; i < frag.Len(); i++ {
			row := frag.Row(i)
			st.SendRow(relation.Bucket(relation.Hash64(row[1], 7), p), row)
		}
	})
	c.DeleteAll("shuffled")
}

// fragmentOf returns the rows of rel whose column col hashes to server 0 of
// p: the fragment a hash shuffle hands one server.
func fragmentOf(rel *relation.Relation, col, p int) *relation.Relation {
	return rel.Select(rel.Name(), func(row []relation.Value) bool {
		return relation.Bucket(relation.Hash64(row[col], 7), p) == 0
	})
}

// runProbes measures every layer on env's data and returns the per-layer
// metrics they define, scaled to the reference machine by the calibrations
// around the whole suite (also returned). withService adds the two service
// counters, for workloads whose own system is not a service.
func runProbes(env *probeEnv, withService bool) (map[string]float64, []calSample, error) {
	pr := &prober{ms: map[string][]float64{}}
	out := map[string]float64{}
	before := calibrate()
	if err := probeFrontDoor(pr, env, out, withService); err != nil {
		return nil, nil, err
	}
	if err := probePlan(pr, env); err != nil {
		return nil, nil, err
	}
	probeMPC(pr, env)
	if err := probeNet(pr, env); err != nil {
		return nil, nil, err
	}
	probeKernels(pr, env, out)
	if err := probeAlgorithms(pr, env, out); err != nil {
		return nil, nil, err
	}
	after := calibrate()
	k, _, _ := factorsAt([]calSample{before, after}, 0)

	n := float64(env.r.Len())
	perTupleNS := func(name string) float64 { return pr.median(name) * 1e6 / n * k }
	us := func(name string) float64 { return pr.median(name) * 1e3 * k }
	out["query.parse_us"] = us(spanParse)
	out["query.compile_us"] = us(spanCompile)
	out["query.shapekey_us"] = us(spanShapeKey)
	out["service.do_overhead_us"] = us("do_overhead")
	out["service.register_us"] = us(spanRegister)
	out["service.serialize_us"] = us(spanMarshal)
	out["service.trace_on_ratio"] = ratio(pr.median("do_traced"), pr.median("do_untraced"))
	out["service.concurrent2_speedup"] = ratio(pr.median("clients1"), pr.median("clients2"))
	out["core.plan_us"] = us(spanPlan)
	out["core.execute_forced_ms"] = pr.median(spanExecute) * k
	out["core.project_us"] = us(spanProject)
	out["plan.collectstats_us"] = us("plan.CollectStats")
	out["plan.choose_us"] = us("plan.Choose")
	out["mpc.newcluster_us"] = us(spanNewCluster)
	out["mpc.scatter_ns_per_tuple"] = perTupleNS(spanScatter)
	out["mpc.round_empty_us"] = us("round_empty")
	out["mpc.round_shuffle_ns_per_tuple"] = perTupleNS("round_shuffle")
	out["mpc.gather_ns_per_tuple"] = perTupleNS(spanGather)
	out["mpc.round_traced_ratio"] = ratio(pr.median("round_shuffle_traced"), pr.median("round_shuffle"))
	out["mpcnet.loopback_dial_ms"] = pr.median("mpcnet.NewLoopback") * k
	out["mpcnet.round_empty_us"] = us("tcp_round_empty")
	out["mpcnet.round_shuffle_ns_per_tuple"] = perTupleNS("tcp_round_shuffle")
	out["mpcnet.tcp_over_local_ratio"] = ratio(pr.median("tcp_round_shuffle"), pr.median("round_shuffle"))
	for _, name := range []string{"genericjoin", "hashjoin", "semijoin", "groupby", "dedup", "project"} {
		out["relation."+name+"_ns_per_row"] *= k
	}
	out["hypercube.newplan_us"] = us("hypercube.NewPlan")
	out["hypercube.run_ms"] = pr.median(spanHyperCube) * k
	out["join2.hashjoin_ms"] = pr.median(spanHashJoin) * k
	out["join2.skewjoin_ms"] = pr.median(spanSkewJoin) * k
	out["yannakakis.gymopt_ms"] = pr.median(spanGYMOpt) * k
	out["recursive.tc_ms"] = pr.median(spanTC) * k
	out["recursive.tc_us_per_round"] *= k
	out["aggregate.run_ms"] = pr.median(spanAggregate) * k
	return out, []calSample{before, after}, nil
}

// probeFrontDoor sends each of the six shapes through a service over env's
// relations with spans on, so that the frontend and service layers are timed
// by the same code as the serve workloads' traced pass, then the three
// service-level comparisons.
func probeFrontDoor(pr *prober, env *probeEnv, out map[string]float64, withCounters bool) error {
	d := &serveData{p: env.p, base: []*relation.Relation{env.r, env.t, env.e}, sVariants: []*relation.Relation{env.s}}
	rels := d.relsWith(0)
	exp := make([]expectation, len(serveShapes))
	for i, sh := range serveShapes {
		var err error
		if exp[i], err = expectShape(sh, d.p, rels); err != nil {
			return err
		}
	}
	d.expected = [][]expectation{exp}
	sys, err := startServe(d, false)
	if err != nil {
		return err
	}
	s := sys.(*serveSys)
	tr := newTracer()
	// At least two rounds of the six shapes, and more while they are cheap:
	// Do minus Run is a difference of two noisy times and needs the pairs.
	for rep, t0 := 0, time.Now(); rep < 2 || (rep < 10 && time.Since(t0) < 600*time.Millisecond); rep++ {
		for id := range serveShapes {
			if !s.exec(id, tr).ok {
				return fmt.Errorf("bench: probe: front-door op %s failed verification", serveShapes[id].kind)
			}
		}
	}
	byName := durationsByName(tr.spans)
	for _, name := range []string{spanParse, spanCompile, spanShapeKey, spanMarshal, spanExecute, spanProject} {
		pr.ms[name] = byName[name]
	}
	pr.ms[spanPlan] = append(byName[spanPlan], byName[spanPlanOffPath]...)
	// Do minus the direct Compiled.Run of the same request on an equal engine.
	do := map[int]float64{}
	for _, sp := range tr.spans {
		switch sp.Name {
		case spanDo:
			do[sp.Request] = ms(sp.dur())
		case spanRunForced:
			pr.ms["do_overhead"] = append(pr.ms["do_overhead"], do[sp.Request]-ms(sp.dur()))
		}
	}

	pr.time(spanRegister, 20, nil, func() { s.svc.Register(env.s) })

	join := serveShapes[0].text
	var failed error
	do1 := func(traceOn bool) func() {
		return func() {
			if _, err := s.svc.Do(service.Request{Tenant: "bench", Query: join, Trace: traceOn}); err != nil {
				failed = err
			}
		}
	}
	for i := 0; i < 5; i++ {
		pr.time("do_untraced", 1, nil, do1(false))
		pr.time("do_traced", 1, nil, do1(true))
	}

	// The six shapes from one closed-loop client, then split between two.
	var mu sync.Mutex
	client := func(ids ...int) {
		for _, id := range ids {
			if _, err := s.svc.Do(service.Request{Tenant: "bench", Query: serveShapes[id].text}); err != nil {
				mu.Lock()
				failed = err
				mu.Unlock()
			}
		}
	}
	for i := 0; i < 2; i++ {
		pr.time("clients1", 1, nil, func() { client(0, 1, 2, 3, 4, 5) })
		pr.time("clients2", 1, nil, func() {
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); client(0, 2, 4) }()
			go func() { defer wg.Done(); client(1, 3, 5) }()
			wg.Wait()
		})
	}
	if failed != nil {
		return failed
	}
	if withCounters {
		out["service.plan_cache_hit_rate"], out["service.shed"], _ = snapshotOf(s)
	}
	return nil
}

// envQueries are the three join shapes over env's relations.
func envQueries(env *probeEnv) (join, triangle, path hypergraph.Query, rels map[string]*relation.Relation) {
	join = hypergraph.NewQuery("join2", atom("R", "x", "y"), atom("S", "y", "z"))
	triangle = hypergraph.NewQuery("triangle", atom("R", "x", "y"), atom("S", "y", "z"), atom("T", "z", "x"))
	path = hypergraph.NewQuery("path3", atom("R", "x", "y"), atom("S", "y", "z"), atom("T", "z", "w"))
	return join, triangle, path, map[string]*relation.Relation{"R": env.r, "S": env.s, "T": env.t}
}

// probePlan times the cost-based planner's two halves on each join shape. It
// is not on the product path today; this is the baseline for making it so.
func probePlan(pr *prober, env *probeEnv) error {
	join, triangle, path, rels := envQueries(env)
	for _, q := range []hypergraph.Query{join, triangle, path} {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			st, err := plan.CollectStats(q, rels, env.p)
			pr.ms["plan.CollectStats"] = append(pr.ms["plan.CollectStats"], ms(time.Since(t0)))
			if err != nil {
				return err
			}
			t0 = time.Now()
			_, err = plan.Choose(st, plan.Options{})
			pr.ms["plan.Choose"] = append(pr.ms["plan.Choose"], ms(time.Since(t0)))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeMPC times the simulator's primitives on a cluster holding env.r.
func probeMPC(pr *prober, env *probeEnv) {
	pr.time(spanNewCluster, 50, nil, func() { mpc.NewCluster(env.p, engineSeed) })
	var c *mpc.Cluster
	fresh := func() { c = mpc.NewCluster(env.p, engineSeed) }
	pr.time(spanScatter, 5, fresh, func() { c.ScatterRoundRobin(env.r) })
	pr.time("round_empty", 200, nil, func() { c.Round("probe:empty", func(*mpc.Server, *mpc.Out) {}) })
	attrs := env.r.Attrs()
	for i := 0; i < 5; i++ {
		c.SetTracer(nil)
		pr.time("round_shuffle", 1, nil, func() { shuffleRound(c, "R", attrs) })
		c.SetTracer(trace.NewRecorder())
		pr.time("round_shuffle_traced", 1, nil, func() { shuffleRound(c, "R", attrs) })
	}
	c.SetTracer(nil)
	pr.time(spanGather, 5, nil, func() { c.Gather("R") })
}

// probeNet times the same rounds with delivery crossing loopback TCP.
func probeNet(pr *prober, env *probeEnv) error {
	var err error
	pr.time("mpcnet.NewLoopback", 5, nil, func() {
		var t *mpcnet.Transport
		if t, err = mpcnet.NewLoopback(env.p, mpcnet.Options{}); err == nil {
			err = t.Close()
		}
	})
	if err != nil {
		return err
	}
	t, err := mpcnet.NewLoopback(env.p, mpcnet.Options{})
	if err != nil {
		return err
	}
	c := mpc.NewCluster(env.p, engineSeed)
	c.SetTransport(t)
	c.ScatterRoundRobin(env.r)
	pr.time("tcp_round_empty", 100, nil, func() { c.Round("probe:empty", func(*mpc.Server, *mpc.Out) {}) })
	attrs := env.r.Attrs()
	pr.time("tcp_round_shuffle", 5, nil, func() { shuffleRound(c, "R", attrs) })
	return t.Close()
}

// probeKernels times the local operators on the fragments one server of
// env.p holds after a hash shuffle on the join key.
func probeKernels(pr *prober, env *probeEnv, out map[string]float64) {
	fr := fragmentOf(env.r, 1, env.p) // R(x, y) by y
	fs := fragmentOf(env.s, 0, env.p) // S(y, z) by y
	in := float64(fr.Len() + fs.Len())
	var joined *relation.Relation
	pr.time("genericjoin", 5, nil, func() { relation.GenericJoin("j", []string{"x", "y", "z"}, fr, fs) })
	pr.time("hashjoin", 5, nil, func() { joined = relation.HashJoin("j", fr, fs) })
	pr.time("semijoin", 5, nil, func() { relation.Semijoin("sj", fr, fs) })
	rows := float64(joined.Len())
	pr.time("groupby", 5, nil, func() { relation.GroupBy("g", joined, []string{"x"}, relation.Sum, "z", "total") })
	var dup *relation.Relation
	pr.time("dedup", 5, func() { dup = joined.Project("d", "y") }, func() { dup.Dedup() })
	pr.time("project", 5, nil, func() { joined.Project("p", "z", "x") })
	out["relation.genericjoin_ns_per_row"] = ratio(pr.median("genericjoin")*1e6, in)
	out["relation.hashjoin_ns_per_row"] = ratio(pr.median("hashjoin")*1e6, in)
	out["relation.semijoin_ns_per_row"] = ratio(pr.median("semijoin")*1e6, in)
	out["relation.groupby_ns_per_row"] = ratio(pr.median("groupby")*1e6, rows)
	out["relation.dedup_ns_per_row"] = ratio(pr.median("dedup")*1e6, rows)
	out["relation.project_ns_per_row"] = ratio(pr.median("project")*1e6, rows)
}

// probeAlgorithms times each algorithm package's entry point on a cluster
// the benchmark built, on env's relations.
func probeAlgorithms(pr *prober, env *probeEnv, out map[string]float64) error {
	join, triangle, path, rels := envQueries(env)
	sizes := map[string]int64{}
	for name, r := range rels {
		sizes[name] = int64(r.Len())
	}
	seed := algSeed(core.NewEngine(env.p, engineSeed))
	var err error
	pr.time("hypercube.NewPlan", 10, nil, func() {
		if _, e := hypercube.NewPlan(triangle, sizes, env.p, seed); e != nil {
			err = e
		}
	})
	var c *mpc.Cluster
	fresh := func() { c = mpc.NewCluster(env.p, engineSeed) }
	const reps = 3
	pr.time(spanHyperCube, reps, fresh, func() {
		if _, e := hypercube.Run(c, triangle, rels, "out", seed, hypercube.LocalGeneric); e != nil {
			err = e
		}
	})
	r, s := testkit.Renamed(join.Atoms[0], env.r), testkit.Renamed(join.Atoms[1], env.s)
	pr.time(spanHashJoin, reps, fresh, func() { join2.HashJoin(c, r, s, "out", seed) })
	joined := c.Gather("out").Rename("joined")
	pr.time(spanSkewJoin, reps, fresh, func() { join2.SkewJoin(c, r, s, "out", seed) })
	_, jt := hypergraph.IsAcyclic(path)
	pr.time(spanGYMOpt, reps, fresh, func() { yannakakis.GYMOptimized(c, jt, rels, "out", seed) })
	rounds := 0
	pr.time(spanTC, reps, fresh, func() {
		res, e := recursive.TransitiveClosure(c, env.e, "out", seed)
		if e != nil {
			err = e
			return
		}
		rounds = res.Rounds
	})
	pr.time(spanAggregate, reps, func() { fresh(); c.ScatterRoundRobin(joined) }, func() {
		_, e := aggregate.Run(c, aggregate.Spec{
			Rel: "joined", GroupBy: []string{"x"}, Fn: relation.Sum, AggAttr: "z", OutAttr: "total", OutRel: "agg", Seed: seed,
		})
		if e != nil {
			err = e
		}
	})
	out["recursive.tc_us_per_round"] = ratio(pr.median(spanTC)*1e3, float64(rounds))
	return err
}
