package main

import (
	"fmt"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/core"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/join2"
	"mpcquery/internal/mpc"
	"mpcquery/internal/recursive"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/yannakakis"
)

// Span names. One name per public function the benchmark times, so that a
// span file groups by layer with no lookup table.
const (
	spanDo           = "service.Service.Do"
	spanRegister     = "service.Service.Register"
	spanMarshal      = "json.Marshal"
	spanParse        = "query.Parse"
	spanCompile      = "query.Compile"
	spanShapeKey     = "query.Compiled.ShapeKey"
	spanRunForced    = "query.Compiled.Run"
	spanPlan         = "core.Engine.Plan"
	spanPlanOffPath  = "core.Engine.Plan (not on this request's path)"
	spanExecute      = "core.Engine.Execute"
	spanExecRec      = "core.Engine.ExecuteRecursive"
	spanExecAgg      = "core.Engine.ExecuteAggregate"
	spanNewCluster   = "mpc.NewCluster"
	spanGather       = "mpc.Cluster.Gather"
	spanProject      = "relation.Relation.Project"
	spanHyperCube    = "hypercube.Run"
	spanSkewHC       = "hypercube.RunSkewHC"
	spanHashJoin     = "join2.HashJoin"
	spanBroadcast    = "join2.BroadcastJoin"
	spanSkewJoin     = "join2.SkewJoin"
	spanGYMOpt       = "yannakakis.GYMOptimized"
	spanTC           = "recursive.TransitiveClosure"
	spanAggregate    = "aggregate.Run"
	spanScatter      = "mpc.Cluster.ScatterRoundRobin"
	spanOpPrefix     = "op:"     // root of the real front-door call
	spanReplayPrefix = "replay:" // root of the step-by-step replay
)

// algSeed is the hash seed core.Engine.Execute derives from its engine seed;
// the replay uses the same one so that its algorithm call does the same work.
func algSeed(e *core.Engine) uint64 { return uint64(e.Seed)*2654435761 + 12345 }

// closureSeed is the one core.Engine.ExecuteRecursive derives.
func closureSeed(e *core.Engine) uint64 { return uint64(e.Seed)*2654435761 + 54321 }

// runAlgorithm calls the algorithm package function that core.Engine.Execute
// dispatches alg to, on the given cluster, under a span named after it. It
// covers the algorithms the benchmark's ops are planned onto.
func runAlgorithm(tr *tracer, c *mpc.Cluster, alg core.Algorithm, q hypergraph.Query, rels map[string]*relation.Relation, out string, seed uint64) error {
	switch alg {
	case core.AlgHashJoin, core.AlgBroadcast, core.AlgSkewJoin:
		r := testkit.Renamed(q.Atoms[0], rels[q.Atoms[0].Name])
		s := testkit.Renamed(q.Atoms[1], rels[q.Atoms[1].Name])
		switch alg {
		case core.AlgHashJoin:
			id := tr.begin(spanHashJoin)
			join2.HashJoin(c, r, s, out, seed)
			tr.end(id)
		case core.AlgBroadcast:
			if s.Len() < r.Len() {
				r, s = s, r
			}
			id := tr.begin(spanBroadcast)
			join2.BroadcastJoin(c, r, s, out)
			tr.end(id)
		case core.AlgSkewJoin:
			id := tr.begin(spanSkewJoin)
			join2.SkewJoin(c, r, s, out, seed)
			tr.end(id)
		}
		return nil
	case core.AlgHyperCube:
		id := tr.begin(spanHyperCube)
		_, err := hypercube.Run(c, q, rels, out, seed, hypercube.LocalGeneric)
		tr.end(id)
		return err
	case core.AlgSkewHC:
		id := tr.begin(spanSkewHC)
		_, err := hypercube.RunSkewHC(c, q, rels, out, seed, 0, hypercube.LocalGeneric)
		tr.end(id)
		return err
	case core.AlgGYMOptimized:
		ok, jt := hypergraph.IsAcyclic(q)
		if !ok {
			return fmt.Errorf("bench: %s is cyclic, cannot replay %s", q.Name, alg)
		}
		id := tr.begin(spanGYMOpt)
		yannakakis.GYMOptimized(c, jt, rels, out, seed)
		tr.end(id)
		return nil
	}
	return fmt.Errorf("bench: no replay for algorithm %q", alg)
}

// replayCluster builds the cluster a replay runs its algorithm call on: the
// engine's size and seed, and its transport if it has one.
func replayCluster(tr *tracer, e *core.Engine) *mpc.Cluster {
	id := tr.begin(spanNewCluster)
	c := mpc.NewCluster(e.P, e.Seed)
	tr.end(id)
	if e.Transport != nil {
		c.SetTransport(e.Transport)
	}
	return c
}

// replayJoin repeats one join request step by step: plan, execute with the
// chosen algorithm forced (so planning is excluded), then the pieces of that
// execution on a cluster of the benchmark's own — construct, algorithm call,
// gather, project. It returns the projected output. planned says whether the
// front door planned this request itself; when a plan cache or a forced
// algorithm spared it that, the planning span is named as off the path, so
// that it is not counted against the request.
func replayJoin(tr *tracer, e *core.Engine, req core.Request, planned bool) (*relation.Relation, error) {
	name := spanPlan
	if !planned {
		name = spanPlanOffPath
	}
	auto := req
	auto.Algorithm = core.AlgAuto
	id := tr.begin(name)
	alg, _, err := e.Plan(auto)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if req.Algorithm != "" && req.Algorithm != core.AlgAuto {
		alg = req.Algorithm
	}
	forced := req
	forced.Algorithm = alg
	id = tr.begin(spanExecute)
	_, err = e.Execute(forced)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	c := replayCluster(tr, e)
	if err := runAlgorithm(tr, c, alg, req.Query, req.Relations, "out", algSeed(e)); err != nil {
		return nil, err
	}
	id = tr.begin(spanGather)
	gathered := c.Gather("out")
	tr.end(id)
	id = tr.begin(spanProject)
	out := gathered.Project(req.Query.Name, req.Query.Vars()...)
	tr.end(id)
	return out, nil
}

// replayAggregate repeats an aggregate request: the join as replayJoin does,
// then the group-by round on a cluster of the benchmark's own.
func replayAggregate(tr *tracer, e *core.Engine, req core.Request, spec core.AggregateSpec, planned bool) error {
	joined, err := replayJoin(tr, e, req, planned)
	if err != nil {
		return err
	}
	c := replayCluster(tr, e)
	id := tr.begin(spanScatter)
	c.ScatterRoundRobin(joined.Rename("joined"))
	tr.end(id)
	id = tr.begin(spanAggregate)
	res, err := aggregate.Run(c, aggregate.Spec{
		Rel: "joined", GroupBy: spec.GroupBy, Fn: spec.Fn, AggAttr: spec.AggVar,
		OutAttr: spec.OutAttr, OutRel: "agg", Seed: uint64(e.Seed) ^ 0xa66,
	})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(spanGather)
	c.Gather(res.OutRel)
	tr.end(id)
	return nil
}

// replayClosure repeats a transitive-closure request on a cluster of the
// benchmark's own.
func replayClosure(tr *tracer, e *core.Engine, edges *relation.Relation) error {
	c := replayCluster(tr, e)
	id := tr.begin(spanTC)
	_, err := recursive.TransitiveClosure(c, edges, "out", closureSeed(e))
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(spanGather)
	c.Gather("out")
	tr.end(id)
	return nil
}
