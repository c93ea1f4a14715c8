package main

import (
	"fmt"
	"time"

	"mpcquery/internal/core"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpcnet"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	gen "mpcquery/internal/workload"
)

// Frozen sizes of the batch and tcp workloads at scale 1.
const (
	batchP         = 8
	batchN         = 40000 // tuples in each sparse relation; domain = n, so joins return about n rows
	batchTriNodes  = 4000
	batchTriEdges  = 15000
	batchZipfN     = 40000
	batchZipfS     = 1.5
	batchTCLayers  = 21 // 20 semi-naive iterations whatever the seed
	batchTCWidth   = 30
	batchTCOutdeg  = 2
	batchAggGroups = 2000
)

// batchOp is one engine request: how to send it through the engine's front
// door, how to replay it step by step, and what it must return.
type batchOp struct {
	kind   string
	front  func(e *core.Engine) (*relation.Relation, cost, error)
	replay func(tr *tracer, e *core.Engine) error
	exp    expectation
}

func atom(name string, vars ...string) hypergraph.Atom {
	return hypergraph.Atom{Name: name, Vars: vars}
}

// joinOp builds a join request op, auto-planned unless alg is set.
func joinOp(kind string, q hypergraph.Query, rels map[string]*relation.Relation, alg core.Algorithm) *batchOp {
	req := core.Request{Query: q, Relations: rels, Algorithm: alg}
	return &batchOp{
		kind: kind,
		front: func(e *core.Engine) (*relation.Relation, cost, error) {
			ex, err := e.Execute(req)
			if err != nil {
				return nil, cost{}, err
			}
			return ex.Output, cost{ex.MaxLoad, ex.Rounds, ex.TotalComm}, nil
		},
		replay: func(tr *tracer, e *core.Engine) error {
			_, err := replayJoin(tr, e, req, alg == core.AlgAuto)
			return err
		},
	}
}

// verifyOp runs the op once on a local engine, checks the full output
// against the oracle as sets, and records the expectation.
func verifyOp(op *batchOp, p int, oracle *relation.Relation) error {
	out, c, err := op.front(core.NewEngine(p, engineSeed))
	if err != nil {
		return fmt.Errorf("%s: %w", op.kind, err)
	}
	if out.Len() != oracle.Len() || !out.EqualAsSets(oracle) {
		return fmt.Errorf("%s: engine output (%d rows) differs from the oracle (%d rows)", op.kind, out.Len(), oracle.Len())
	}
	op.exp = expect(oracle, c, false)
	return nil
}

func buildBatch(name string, seed int64, scale float64) (*workload, error) {
	n := scaled(batchN, scale)
	r := distinctUniform("R", [2]string{"x", "y"}, n, n, n, seed*103+1)
	s := distinctUniform("S", [2]string{"y", "z"}, n, n, n, seed*103+2)
	t := distinctUniform("T", [2]string{"z", "w"}, n, n, n, seed*103+3)
	sparse := map[string]*relation.Relation{"R": r, "S": s, "T": t}
	join2 := hypergraph.NewQuery("join2", atom("R", "x", "y"), atom("S", "y", "z"))
	path3 := hypergraph.NewQuery("path3", atom("R", "x", "y"), atom("S", "y", "z"), atom("T", "z", "w"))
	edges := layeredGraph("E", [2]string{"a", "b"}, batchTCLayers, scaled(batchTCWidth, scale), batchTCOutdeg, seed*103+4)

	hashjoin := joinOp("hashjoin_sparse", join2, sparse, core.AlgHashJoin)
	gym := joinOp("gym_path3", path3, sparse, core.AlgGYMOptimized)

	var ops []*batchOp
	var oracles []*relation.Relation
	switch name {
	case "batch_oneround":
		tr, ts, tt := gen.TriangleInput(scaled(batchTriNodes, scale), scaled(batchTriEdges, scale), seed*103+5)
		tri := map[string]*relation.Relation{"R": tr, "S": ts, "T": tt}
		zr, zs := skewedPair(scaled(batchZipfN, scale), batchZipfS, seed*103+6)
		zipf := map[string]*relation.Relation{"R": zr, "S": zs}
		zq := hypergraph.NewQuery("zipfjoin", atom("R", "y", "x"), atom("S", "y", "z"))
		ops = []*batchOp{
			joinOp("hc_triangle", hypergraph.Triangle(), tri, core.AlgAuto),
			joinOp("zipf_join", zq, zipf, core.AlgAuto),
			hashjoin,
		}
		oracles = []*relation.Relation{
			core.Reference(hypergraph.Triangle(), tri),
			core.Reference(zq, zipf),
			core.Reference(join2, sparse),
		}
	case "batch_multiround":
		spec := core.AggregateSpec{GroupBy: []string{"x"}, Fn: relation.Sum, AggVar: "z", OutAttr: "total"}
		// x ranges over a few thousand groups so that the group-by round has
		// real combining to do; a unique x per row would make it a no-op.
		ar := distinctUniform("R", [2]string{"x", "y"}, n, scaled(batchAggGroups, scale), n, seed*103+8)
		aggRels := map[string]*relation.Relation{"R": ar, "S": s}
		aggReq := core.Request{Query: join2, Relations: aggRels}
		agg := &batchOp{
			kind: "agg_join",
			front: func(e *core.Engine) (*relation.Relation, cost, error) {
				ex, err := e.ExecuteAggregate(aggReq, spec)
				if err != nil {
					return nil, cost{}, err
				}
				return ex.Output, cost{ex.MaxLoad, ex.Rounds, ex.TotalComm}, nil
			},
			replay: func(tr *tracer, e *core.Engine) error { return replayAggregate(tr, e, aggReq, spec, true) },
		}
		tc := &batchOp{
			kind: "tc_batch",
			front: func(e *core.Engine) (*relation.Relation, cost, error) {
				ex, err := e.ExecuteRecursive(core.RecursiveRequest{Kind: core.RecTransitiveClosure, Edges: edges})
				if err != nil {
					return nil, cost{}, err
				}
				return ex.Output, cost{ex.MaxLoad, ex.Rounds, ex.TotalComm}, nil
			},
			replay: func(tr *tracer, e *core.Engine) error { return replayClosure(tr, e, edges) },
		}
		ops = []*batchOp{gym, tc, agg}
		oracles = []*relation.Relation{
			core.Reference(path3, sparse),
			closureOracle("out", edges),
			testkit.OracleGroupBy("agg", core.Reference(join2, aggRels), spec.GroupBy, spec.Fn, spec.AggVar, spec.OutAttr),
		}
	case "tcp_shuffle":
		ops = []*batchOp{hashjoin, gym}
		oracles = []*relation.Relation{core.Reference(join2, sparse), core.Reference(path3, sparse)}
	}
	for i, op := range ops {
		if err := verifyOp(op, batchP, oracles[i]); err != nil {
			return nil, err
		}
	}

	w := &workload{env: &probeEnv{p: batchP, r: r, s: s, t: t, e: edges}}
	for _, op := range ops {
		w.kinds = append(w.kinds, op.kind)
	}
	// Cheap kinds run several times per cycle, for two reasons: no kind may
	// take more than 60 % of the timed wall or less than 10 %, and the pooled
	// p50 and p95 must fall inside one kind's latencies, not on the border
	// between two kinds, where a few ops either way would move them by the
	// whole distance between the kinds.
	switch name {
	case "batch_oneround":
		w.cycle, w.blockCycles = []int{0, 1, 2, 2, 2}, 10
	case "batch_multiround":
		w.cycle, w.blockCycles = []int{0, 1, 2, 2, 2}, 4
	case "tcp_shuffle":
		w.cycle, w.blockCycles = []int{0, 0, 0, 0, 0, 0, 0, 0, 1}, 4
	}
	tcp := name == "tcp_shuffle"
	w.start = func() (system, error) { return startBatch(ops, tcp) }
	return w, nil
}

// batchSys is a started engine, over loopback TCP on the tcp workload.
type batchSys struct {
	ops       []*batchOp
	engine    *core.Engine
	transport *mpcnet.Transport
}

// startBatch is one cold start of the engine front door: construct the
// engine (and dial the loopback workers), then run every op once.
func startBatch(ops []*batchOp, tcp bool) (system, error) {
	s := &batchSys{ops: ops, engine: core.NewEngine(batchP, engineSeed)}
	if tcp {
		tr, err := mpcnet.NewLoopback(batchP, mpcnet.Options{})
		if err != nil {
			return nil, err
		}
		s.transport = tr
		s.engine.Transport = tr
	}
	for id := range ops {
		if obs := s.exec(id, nil); !obs.ok {
			s.close()
			return nil, fmt.Errorf("cold start: op %s failed verification", ops[id].kind)
		}
	}
	return s, nil
}

func (s *batchSys) close() {
	if s.transport != nil {
		_ = s.transport.Close() // best effort: the workers exit on EOF either way
	}
}

func (s *batchSys) exec(id int, tr *tracer) opObs {
	op := s.ops[id]
	tr.nextRequest()
	root := tr.begin(spanOpPrefix + op.kind)
	cpu0, t0 := cpuNow(), time.Now()
	out, c, err := op.front(s.engine)
	obs := opObs{dur: time.Since(t0), cpu: cpuNow() - cpu0, cost: c}
	tr.end(root)
	if err != nil {
		return obs
	}
	obs.ok = op.exp.checkFull(out, c)
	if tr != nil && obs.ok {
		root = tr.begin(spanReplayPrefix + op.kind)
		obs.ok = op.replay(tr, s.engine) == nil
		tr.end(root)
	}
	return obs
}
