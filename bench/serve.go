package main

import (
	"encoding/json"
	"fmt"
	"time"

	"mpcquery/internal/core"
	"mpcquery/internal/query"
	"mpcquery/internal/relation"
	"mpcquery/internal/service"
	"mpcquery/internal/testkit"
)

// shape is one query text the serve workloads send.
type shape struct{ kind, text string }

// serveShapes are the six request shapes, one per compiled-query path: two
// two-way joins (different relations, so different plan-cache keys), a cyclic
// join, an aggregate, an acyclic three-way join, and a recursive rule set.
var serveShapes = []shape{
	{"join_rs", "q(x, y, z) :- R(x, y), S(y, z)."},
	{"triangle", "tri(x, y, z) :- R(x, y), S(y, z), T(z, x)."},
	{"agg_sum", "agg(x, sum(z)) :- R(x, y), S(y, z)."},
	{"path3", "path(x, y, z, w) :- R(x, y), S(y, z), T(z, w)."},
	{"join_st", "q2(y, z, w) :- S(y, z), T(z, w)."},
	{"tc", "tc(x, y) :- E(x, y).\ntc(x, z) :- tc(x, y), E(y, z)."},
}

// Frozen sizes of the serve workloads at scale 1.
const (
	serveP        = 4
	serveN        = 3000 // tuples in each of R, S, T
	serveDomain   = 1500
	serveLayers   = 9 // E: layered DAG, 9 layers × 12 vertices, out-degree 2
	serveWidth    = 12
	serveOutdeg   = 2
	serveVariants = 4   // serve_churn cycles S through this many same-size relations
	serveMaxRows  = 100 // rows a response embeds: mpcserve's -max-rows default
)

// serveData is the generated input of a serve workload plus what every op
// must return.
type serveData struct {
	p         int
	base      []*relation.Relation // R, T, E
	sVariants []*relation.Relation
	// expected[v][i] is shape i's expectation while S is variant v.
	expected [][]expectation
}

// relsWith returns the catalog with S at variant v.
func (d *serveData) relsWith(v int) map[string]*relation.Relation {
	rels := map[string]*relation.Relation{"S": d.sVariants[v]}
	for _, r := range d.base {
		rels[r.Name()] = r
	}
	return rels
}

// oracleFor evaluates a compiled query on one machine with code the engine
// does not share: core.Reference for the join, testkit.OracleGroupBy for the
// aggregate, a breadth-first closure for the recursion.
func oracleFor(c *query.Compiled, rels map[string]*relation.Relation) (*relation.Relation, error) {
	switch c.Kind {
	case query.KindJoin, query.KindAggregate:
		bound, err := c.BindRelations(rels)
		if err != nil {
			return nil, err
		}
		joined := core.Reference(c.Query, bound)
		if c.Kind == query.KindJoin {
			return joined.Project(c.Query.Name, c.Head...), nil
		}
		a := c.Aggregate
		return testkit.OracleGroupBy(c.Query.Name, joined, a.GroupBy, a.Fn, a.AggVar, a.OutAttr), nil
	case query.KindRecursive:
		closure := closureOracle("tc", rels[c.Recursive.EdgeRel])
		out := relation.New("tc", c.Head...)
		out.AppendAll(closure)
		return out, nil
	}
	return nil, fmt.Errorf("no oracle for query kind %v", c.Kind)
}

// expectShape compiles and runs one shape on a local engine, checks the full
// output against the oracle as sets, and returns the expectation the timed
// ops are held to.
func expectShape(sh shape, p int, rels map[string]*relation.Relation) (expectation, error) {
	prog, err := query.Parse(sh.text)
	if err != nil {
		return expectation{}, err
	}
	c, err := query.Compile(prog, query.CatalogOf(rels))
	if err != nil {
		return expectation{}, err
	}
	oracle, err := oracleFor(c, rels)
	if err != nil {
		return expectation{}, err
	}
	res, err := c.Run(core.NewEngine(p, engineSeed), rels, core.AlgAuto)
	if err != nil {
		return expectation{}, err
	}
	if res.Output.Len() != oracle.Len() || !res.Output.EqualAsSets(oracle) {
		return expectation{}, fmt.Errorf("%s: engine output (%d rows) differs from the oracle (%d rows)", sh.kind, res.Output.Len(), oracle.Len())
	}
	return expect(oracle, cost{res.MaxLoad, res.Rounds, res.TotalComm}, true), nil
}

func buildServe(name string, seed int64, scale float64, churn bool) (*workload, error) {
	n, dom := scaled(serveN, scale), scaled(serveDomain, scale)
	d := &serveData{p: serveP}
	d.base = []*relation.Relation{
		distinctUniform("R", [2]string{"x", "y"}, n, dom, dom, seed*101+1),
		distinctUniform("T", [2]string{"z", "w"}, n, dom, dom, seed*101+3),
		layeredGraph("E", [2]string{"a", "b"}, serveLayers, serveWidth, serveOutdeg, seed*101+4),
	}
	variants := 1
	if churn {
		variants = serveVariants
	}
	for v := 0; v < variants; v++ {
		d.sVariants = append(d.sVariants, distinctUniform("S", [2]string{"y", "z"}, n, dom, dom, seed*101+10+int64(v)))
		rels := d.relsWith(v)
		exp := make([]expectation, len(serveShapes))
		for i, sh := range serveShapes {
			var err error
			if exp[i], err = expectShape(sh, d.p, rels); err != nil {
				return nil, err
			}
		}
		d.expected = append(d.expected, exp)
	}

	w := &workload{env: &probeEnv{p: d.p, r: d.base[0], s: d.sVariants[0], t: d.base[1], e: d.base[2]}}
	for _, sh := range serveShapes {
		w.kinds = append(w.kinds, sh.kind)
	}
	// Seven requests a cycle: each shape once and the aggregate twice, so
	// that the pooled median falls inside the aggregate's latencies and not
	// on the border between two shapes (see the same note in batch.go).
	w.cycle = []int{0, 1, 2, 2, 3, 4, 5}
	w.blockCycles = 30
	if churn {
		for range d.sVariants {
			w.kinds = append(w.kinds, "register")
		}
		// Every 4th op replaces S, so the three queries that follow find
		// their cached plans invalidated.
		w.interleaveEvery = 4
		w.interleave = func(k int) int { return len(serveShapes) + (k+1)%len(d.sVariants) }
		w.blockCycles = 24
	}
	w.start = func() (system, error) { return startServe(d, churn) }
	return w, nil
}

// serveSys is a started service plus the mirror the replays need: the catalog
// as the service holds it now, and an engine equal to the service's.
type serveSys struct {
	d       *serveData
	svc     *service.Service
	engine  *core.Engine
	rels    map[string]*relation.Relation
	variant int
}

// startServe is one cold start of the service front door: construct it,
// register the catalog, send every shape once against a cold plan cache and,
// on the churn workload, replace S once.
func startServe(d *serveData, churn bool) (system, error) {
	s := &serveSys{
		d:      d,
		svc:    service.New(service.Config{P: d.p, Seed: engineSeed, MaxResultRows: serveMaxRows}),
		engine: core.NewEngine(d.p, engineSeed),
		rels:   d.relsWith(0),
	}
	for _, name := range []string{"R", "S", "T", "E"} {
		s.svc.Register(s.rels[name])
	}
	ids := len(serveShapes)
	if churn {
		ids++
	}
	for id := 0; id < ids; id++ {
		if obs := s.exec(id, nil); !obs.ok {
			return nil, fmt.Errorf("cold start: op %d failed verification", id)
		}
	}
	return s, nil
}

func (s *serveSys) close() {}

func (s *serveSys) exec(id int, tr *tracer) opObs {
	tr.nextRequest()
	if id >= len(serveShapes) {
		v := id - len(serveShapes)
		rel := s.d.sVariants[v]
		root := tr.begin(spanOpPrefix + "register")
		cpu0, t0 := cpuNow(), time.Now()
		sp := tr.begin(spanRegister)
		s.svc.Register(rel)
		tr.end(sp)
		obs := opObs{dur: time.Since(t0), cpu: cpuNow() - cpu0, ok: true}
		tr.end(root)
		s.rels["S"], s.variant = rel, v
		return obs
	}
	sh := serveShapes[id]
	root := tr.begin(spanOpPrefix + sh.kind)
	cpu0, t0 := cpuNow(), time.Now()
	sp := tr.begin(spanDo)
	resp, err := s.svc.Do(service.Request{Tenant: "bench", Query: sh.text})
	tr.end(sp)
	var body []byte
	if err == nil {
		sp = tr.begin(spanMarshal)
		body, err = json.Marshal(resp)
		tr.end(sp)
	}
	obs := opObs{dur: time.Since(t0), cpu: cpuNow() - cpu0}
	tr.end(root)
	if err != nil || len(body) == 0 {
		return obs
	}
	obs.cost = cost{resp.Cost.MaxLoad, resp.Cost.Rounds, resp.Cost.TotalComm}
	obs.ok = s.d.expected[s.variant][id].checkPrefix(resp.Rows, resp.Output, serveMaxRows, obs.cost)
	if tr != nil && obs.ok {
		obs.ok = s.replay(tr, sh, core.Algorithm(resp.Algorithm), !resp.CacheHit) == nil
	}
	return obs
}

// replay repeats the request the service just served, one public call at a
// time, against the same catalog and an equal engine. planned says whether
// the service had to plan it (a plan-cache miss).
func (s *serveSys) replay(tr *tracer, sh shape, alg core.Algorithm, planned bool) error {
	root := tr.begin(spanReplayPrefix + sh.kind)
	defer tr.end(root)
	sp := tr.begin(spanParse)
	prog, err := query.Parse(sh.text)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(spanCompile)
	c, err := query.Compile(prog, query.CatalogOf(s.rels))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(spanShapeKey)
	_ = c.ShapeKey()
	tr.end(sp)
	if c.Kind == query.KindRecursive {
		alg = core.AlgAuto // the fixpoint has no algorithm choice to force
	}
	sp = tr.begin(spanRunForced)
	_, err = c.Run(s.engine, s.rels, alg)
	tr.end(sp)
	if err != nil {
		return err
	}
	if c.Kind == query.KindRecursive {
		return replayClosure(tr, s.engine, s.rels[c.Recursive.EdgeRel])
	}
	bound, err := c.BindRelations(s.rels)
	if err != nil {
		return err
	}
	req := core.Request{Query: c.Query, Relations: bound}
	if c.Kind == query.KindAggregate {
		return replayAggregate(tr, s.engine, req, *c.Aggregate, planned)
	}
	_, err = replayJoin(tr, s.engine, req, planned)
	return err
}
