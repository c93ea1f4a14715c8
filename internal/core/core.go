// Package core is the top-level API of the library: an Engine that
// executes conjunctive queries on a simulated MPC cluster, choosing
// among the tutorial's algorithms the way the tutorial itself teaches:
//
//   - two-way joins: broadcast the small side when |R| ≤ IN/p
//     (slide 32); use the heavy-hitter-aware skew join when the join
//     attribute has heavy hitters (slides 29–30); plain parallel hash
//     join otherwise (slide 23);
//   - multiway acyclic queries: GYM (distributed Yannakakis) when the
//     AGM output bound is below the crossover OUT < p^{1−1/τ*}·IN
//     (slide 78), one-round HyperCube otherwise;
//   - multiway cyclic queries: one-round HyperCube (slides 34–51).
//
// Both multiway branches choose their one-round HyperCube by one skew
// rule: SkewHC when a variable whose integer HyperCube share is > 1
// has heavy hitters, plain HyperCube otherwise. A heavy value hurts
// HyperCube only by confining its tuples to one slab of its variable's
// dimension (slide 46); a variable of share 1 has no slabs, so its
// heavy hitters cost plain HyperCube nothing.
//
// The heavy hitters that choose skewjoin or skewhc are the ones those
// algorithms route by: the planner counts them once, with
// join2.HeavyHitters or hypercube.HeavyValues, and hands that count to
// the descriptor's Run, which counts for itself only when handed
// nothing (a forced algorithm). So the servers know the heavy hitters,
// as the tutorial's one-round skew algorithms assume, both route in one
// round, and a request scans its join columns for them once.
//
// Planning picks a name; running it is a lookup. Every algorithm is
// declared once, as a cost.Plannable descriptor in its own package;
// Registry lists them, and the engine runs the planned or forced name
// by asking its descriptor's Applies and calling its Run — so what
// EXPLAIN calls inapplicable the engine refuses in the same words, and
// a new algorithm is a descriptor plus a name constant here.
//
// There are three entry points — Execute (conjunctive query),
// ExecuteAggregate (conjunctive query plus a distributed group-by) and
// ExecuteRecursive (semi-naive fixpoint) — and one result, Execution.
// All three go through one private spine, Engine.run, which alone
// validates the engine, builds the cluster, gathers and assembles the
// Execution, so every execution reports the MPC cost actually metered —
// max per-round load L, rounds r, total communication C — from a single
// ledger, next to the result. Operators compose on the cluster: each
// reads its input where the previous one left it, and the answer
// leaves the cluster once, in run's Gather.
//
// Semantics: sets in, each binding out once. Inputs are sets, as
// everywhere in the MPC join theory, and on sets every algorithm
// returns each output binding exactly once. Relations become sets
// where they enter the system, once: service.Service.Register and
// mpcrun pass each through relation.Relation.Distinct, which keeps the
// first occurrence of each row and returns a set untouched. Nothing
// after that scans for repeats — not the engine, not the local join
// kernel every server runs (relation.GenericJoin), not Reference — so
// a caller of Execute holding a bag passes it through Distinct first;
// on a bag, answers may repeat. Workloads needing SQL bag
// semantics (e.g. SUM over a join with duplicate rows) should carry a
// unique key column, as the analytics example does.
package core

import (
	"fmt"
	"slices"
	"strings"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/bigjoin"
	"mpcquery/internal/cost"
	"mpcquery/internal/fractional"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/join2"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
	"mpcquery/internal/yannakakis"
)

// Algorithm identifies a parallel query-processing strategy.
type Algorithm string

// Available algorithms. AlgAuto lets the planner decide; every other
// constant names exactly one descriptor in Registry
// (TestRegistryMatchesAlgorithms).
const (
	AlgAuto         Algorithm = "auto"
	AlgHashJoin     Algorithm = "hashjoin"
	AlgBroadcast    Algorithm = "broadcast"
	AlgSkewJoin     Algorithm = "skewjoin"
	AlgSortJoin     Algorithm = "sortjoin"
	AlgHyperCube    Algorithm = "hypercube"
	AlgSkewHC       Algorithm = "skewhc"
	AlgGYM          Algorithm = "gym"
	AlgGYMOptimized Algorithm = "gym-opt"
	AlgBinaryPlan   Algorithm = "binaryplan"
	// AlgHLTriangle is the multi-round Heavy-Light + Semijoins algorithm
	// (slides 58–60); it applies only to the triangle query.
	AlgHLTriangle Algorithm = "hl-triangle"
	// AlgBigJoin is the variable-at-a-time multi-round join (slide 97,
	// BiGJoin-style): one extend round per variable plus verify rounds.
	AlgBigJoin Algorithm = "bigjoin"
)

// registry is the one list of packages declaring runnable algorithms,
// in EXPLAIN's registration order.
var registry = slices.Concat(
	join2.Plannables(),
	hypercube.Plannables(),
	yannakakis.Plannables(),
	bigjoin.Plannables(),
)

// Registry returns the descriptor of every algorithm the engine can
// run, its only dispatch table. Callers must not modify it.
func Registry() []cost.Plannable { return registry }

// Engine executes conjunctive queries on a fresh simulated cluster per
// request.
type Engine struct {
	// P is the number of servers.
	P int
	// Seed drives all hashing and data placement; equal seeds give
	// bit-identical executions. It is the query seed: every algorithm's
	// Run, the group-by and the fixpoint get it unchanged, and each
	// shuffle derives its own from it and the variables it hashes
	// (mpc.HashSeed).
	Seed int64
	// Chaos, when non-nil, attaches this fault schedule to every cluster
	// the engine builds (typically a *chaos.Schedule). Executions then
	// run the mpc recovery protocol: they either complete with output
	// and (L, r, C) identical to the fault-free run, or return an error
	// wrapping the *mpc.RecoveryFailure, whose Metrics is the ledger.
	Chaos mpc.FaultInjector
	// Transport, when non-nil, routes every cluster's round delivery
	// through this backend (typically an *mpcnet.Transport dialed for P
	// servers) instead of the default in-process one. Conforming
	// transports are observably identical — same output, (L, r, C), and
	// trace events — so this selects *where bytes move*, never *what the
	// simulation computes*. The engine does not close the transport.
	Transport mpc.Transport
	// Capacities, when non-nil, declares a heterogeneous per-server
	// capacity profile (len must equal P, entries > 0). Clusters carry
	// the profile, Metrics.NormalizedMakespan can normalize by it, and
	// HyperCube executions run the capacity-aware plan
	// (hypercube.RunHet), which gives each server a box of the share
	// grid sized to its capacity.
	Capacities []float64
}

// NewEngine returns an engine for a p-server cluster.
func NewEngine(p int, seed int64) *Engine {
	if p < 1 {
		panic(fmt.Sprintf("core: engine needs p ≥ 1, got %d", p))
	}
	return &Engine{P: p, Seed: seed}
}

// Request is one query execution request. Relations are keyed by atom
// name; each relation's columns correspond positionally to the atom's
// variables.
type Request struct {
	Query     hypergraph.Query
	Relations map[string]*relation.Relation
	// Algorithm forces a strategy; AlgAuto (or empty) lets the planner
	// decide.
	Algorithm Algorithm
}

// Execution is the result of running a request of any kind.
type Execution struct {
	// Output is the gathered answer: schema Query.Vars() for Execute,
	// GroupBy + OutAttr for ExecuteAggregate, the fixpoint relation for
	// ExecuteRecursive. The inputs are sets (see the package doc), so
	// its rows are distinct: each binding appears once, whichever
	// algorithm ran.
	Output *relation.Relation
	// Algorithm is the planned (or forced) strategy; "fixpoint-<kind>"
	// for recursive runs.
	Algorithm Algorithm
	// Reason explains the planner's choice (empty for recursion).
	Reason string
	// Iterations is the semi-naive iteration count (recursive only).
	Iterations int
	// Rounds, MaxLoad and TotalComm are (r, L, C) read off Metrics, the
	// one ledger of the one cluster the execution ran on; its trace is
	// Metrics.Events().
	Rounds    int
	MaxLoad   int64
	TotalComm int64
	Metrics   *mpc.Metrics
}

// Plan decides which algorithm to use for the request and explains why.
// A multiway query that does not go to GYM runs SkewHC exactly when a
// variable with integer HyperCube share > 1 has heavy hitters (see
// oneRound), and plain HyperCube otherwise.
func (e *Engine) Plan(req Request) (Algorithm, string, error) {
	alg, reason, _, err := e.plan(req)
	return alg, reason, err
}

// plan is Plan's decision, also returning the heavy hitters it counted
// when it chose skewjoin or skewhc (nil otherwise), for that
// descriptor's Run to route by.
func (e *Engine) plan(req Request) (Algorithm, string, *stats.Known, error) {
	if err := validate(req); err != nil {
		return "", "", nil, err
	}
	if req.Algorithm != "" && req.Algorithm != AlgAuto {
		return req.Algorithm, "forced by request", nil, nil
	}
	q := req.Query
	in := 0
	for _, a := range q.Atoms {
		in += req.Relations[a.Name].Len()
	}
	// Two-way binary join?
	if y, ok := q.TwoWayJoinVar(); ok {
		r := req.Relations[q.Atoms[0].Name]
		s := req.Relations[q.Atoms[1].Name]
		small := min(r.Len(), s.Len())
		if small*e.P <= in {
			return AlgBroadcast, fmt.Sprintf("small side (%d tuples) ≤ IN/p = %d: broadcast it", small, in/e.P), nil, nil
		}
		hh, threshold := join2.HeavyHitters(r, slices.Index(q.Atoms[0].Vars, y), s, slices.Index(q.Atoms[1].Vars, y), e.P)
		if len(hh) > 0 {
			return AlgSkewJoin, fmt.Sprintf("%d heavy hitters on %s (threshold %d): skew-aware join", len(hh), y, threshold), &stats.Known{Join: hh}, nil
		}
		return AlgHashJoin, "no skew detected: parallel hash join", nil, nil
	}
	acyclic, _ := hypergraph.IsAcyclic(q)
	if acyclic {
		// GYM wins when OUT is small (slide 78); use the AGM bound as
		// the (worst-case) output estimate.
		agm, err := fractional.AGMBound(q, hypercube.Sizes(q, req.Relations))
		if err != nil {
			return "", "", nil, err
		}
		ep, err := fractional.MaxEdgePacking(q)
		if err != nil {
			return "", "", nil, err
		}
		crossover := cost.GYMCrossoverOut(float64(in), e.P, ep.Tau)
		if agm < crossover {
			return AlgGYMOptimized, fmt.Sprintf("acyclic, AGM bound %.0f < crossover %.0f: GYM", agm, crossover), nil, nil
		}
		return e.oneRound(q, req.Relations, fmt.Sprintf("acyclic, AGM bound %.0f ≥ crossover %.0f", agm, crossover))
	}
	return e.oneRound(q, req.Relations, "cyclic")
}

// oneRound is Plan's skew rule for a multiway query. The shares are
// the grid hypercube.Run routes on; the reason, opened by why, names the
// first split heavy variable in q.Vars() order. On choosing SkewHC it
// returns every variable's heavy values, which the skewhc descriptor
// routes by, each counted once: the split variables before the heavy
// one were counted light, and the rest are counted then.
func (e *Engine) oneRound(q hypergraph.Query, rels map[string]*relation.Relation, why string) (Algorithm, string, *stats.Known, error) {
	sh, err := fractional.OptimalShares(q, hypercube.Sizes(q, rels), e.P)
	if err != nil {
		return "", "", nil, err
	}
	threshold := hypercube.Threshold(q, rels, e.P)
	for i, v := range sh.Vars {
		if sh.Integer[i] <= 1 {
			continue
		}
		hv := hypercube.HeavyValues(q, rels, v, threshold)
		if len(hv) == 0 {
			continue
		}
		known := &stats.Known{Vars: make([][]relation.Value, len(sh.Vars))}
		for j, u := range sh.Vars {
			switch {
			case j == i:
				known.Vars[j] = hv
			case j > i || sh.Integer[j] <= 1:
				known.Vars[j] = hypercube.HeavyValues(q, rels, u, threshold)
			}
		}
		return AlgSkewHC, fmt.Sprintf("%s, heavy hitters on %s (share %d): SkewHC", why, v, sh.Integer[i]), known, nil
	}
	return AlgHyperCube, why + ", no heavy hitters on a variable of share > 1: HyperCube", nil, nil
}

// newCluster builds the engine's simulated cluster, attaching the
// fault schedule, transport and capacity profile if configured.
func (e *Engine) newCluster() *mpc.Cluster {
	c := mpc.NewCluster(e.P, e.Seed)
	if e.Chaos != nil {
		c.SetFaultInjector(e.Chaos)
	}
	c.SetTransport(e.Transport) // nil keeps the local default
	if e.Capacities != nil {
		c.SetCapacities(e.Capacities)
	}
	return c
}

// run is the execution spine every entry point goes through: validate
// the engine, build the one cluster, let body compute on it and leave
// its answer there, gather the answer — its one copy — and read
// (L, r, C) off that cluster's ledger. body names the answer's relation
// and the column order it wants, or nil; a projection runs only when
// the columns came in another order (broadcast with the second atom
// smaller, sortjoin with the join variable first in atom 0). body may
// extend ex.Reason and set ex.Iterations. A failed round's error, the
// cluster's Err, is returned before the gather, in place of body's.
func (e *Engine) run(alg Algorithm, reason string, body func(c *mpc.Cluster, ex *Execution) (rel string, vars []string, err error)) (*Execution, error) {
	if err := mpc.CheckCapacities(e.P, e.Capacities); err != nil {
		return nil, err
	}
	c := e.newCluster()
	ex := &Execution{Algorithm: alg, Reason: reason}
	rel, vars, err := body(c, ex)
	if cerr := c.Err(); cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out := c.Gather(rel)
	if vars != nil && !slices.Equal(out.Attrs(), vars) {
		out = out.Project(rel, vars...)
	}
	m := c.Metrics()
	ex.Output, ex.Metrics = out, m
	ex.Rounds, ex.MaxLoad, ex.TotalComm = m.Rounds(), m.MaxLoad(), m.TotalComm()
	return ex, nil
}

// Execute plans (unless forced) and runs the request, returning the
// gathered output, named Query.Name, and metered costs.
func (e *Engine) Execute(req Request) (*Execution, error) {
	alg, reason, known, err := e.plan(req)
	if err != nil {
		return nil, err
	}
	ex, err := e.run(alg, reason, func(c *mpc.Cluster, ex *Execution) (string, []string, error) {
		rel, err := e.join(c, ex, req, known)
		return rel, req.Query.Vars(), err
	})
	if err != nil {
		return nil, err
	}
	ex.Output = ex.Output.Rename(req.Query.Name)
	return ex, nil
}

// join runs ex.Algorithm for the request's query on c and returns the
// name of the relation its answer is distributed under: look the name
// up in the registry, ask its Applies, call its Run with the heavy
// hitters the plan counted (nil when it counted none).
func (e *Engine) join(c *mpc.Cluster, ex *Execution, req Request, known *stats.Known) (string, error) {
	q, alg := req.Query, ex.Algorithm
	c.Note("plan %s: %s (%s)", q.Name, alg, ex.Reason)
	d := cost.Lookup(registry, string(alg))
	if d == nil {
		return "", fmt.Errorf("core: unknown algorithm %q (have %s)", alg, strings.Join(cost.Names(registry), ", "))
	}
	if err := d.Applies(q); err != nil {
		return "", fmt.Errorf("core: %s: %w", alg, err)
	}
	const outName = "out"
	if err := d.Run(c, q, req.Relations, outName, uint64(e.Seed), known); err != nil {
		return "", err
	}
	if alg == AlgHyperCube && c.Capacities() != nil {
		ex.Reason += "; capacity-aware boxes, one per server"
	}
	return outName, nil
}

// AggregateSpec describes a grouped aggregation over a query's output
// — the slide-52 workload (SELECT cKey, month, SUM(price) FROM ... GROUP
// BY cKey, month).
type AggregateSpec struct {
	GroupBy []string
	Fn      relation.AggFunc
	AggVar  string // aggregated variable (ignored for Count)
	OutAttr string // name of the aggregate output column
}

// ExecuteAggregate runs the request's join and then a distributed
// group-by round over its output, with local pre-aggregation, on the
// same cluster: the group-by reads the join's fragments where the join
// left them, so each server's combiner sees the join's placement. The
// returned Execution's Output has schema GroupBy + OutAttr, and its
// metrics cover the join rounds and the aggregation round.
func (e *Engine) ExecuteAggregate(req Request, spec AggregateSpec) (*Execution, error) {
	if len(spec.GroupBy) == 0 {
		return nil, fmt.Errorf("core: aggregate needs group-by variables")
	}
	vars := map[string]bool{}
	for _, v := range req.Query.Vars() {
		vars[v] = true
	}
	for _, g := range spec.GroupBy {
		if !vars[g] {
			return nil, fmt.Errorf("core: group-by variable %s not in query", g)
		}
	}
	if spec.Fn != relation.Count && !vars[spec.AggVar] {
		return nil, fmt.Errorf("core: aggregated variable %s not in query", spec.AggVar)
	}
	alg, reason, known, err := e.plan(req)
	if err != nil {
		return nil, err
	}
	return e.run(alg, reason, func(c *mpc.Cluster, ex *Execution) (string, []string, error) {
		joined, err := e.join(c, ex, req, known)
		if err != nil {
			return "", nil, err
		}
		c.Note("aggregate group-by %v", spec.GroupBy)
		res, err := aggregate.Run(c, aggregate.Spec{
			Rel:     joined,
			GroupBy: spec.GroupBy,
			Fn:      spec.Fn,
			AggAttr: spec.AggVar,
			OutAttr: spec.OutAttr,
			OutRel:  "agg",
			Seed:    uint64(e.Seed),
		})
		if err != nil {
			return "", nil, err
		}
		ex.Reason += "; + distributed group-by with combiners"
		return res.OutRel, nil, nil
	})
}

// validate checks that the request supplies a relation of the right
// arity for every atom.
func validate(req Request) error {
	if len(req.Query.Atoms) == 0 {
		return fmt.Errorf("core: query %q has no atoms", req.Query.Name)
	}
	for _, a := range req.Query.Atoms {
		r, ok := req.Relations[a.Name]
		if !ok {
			return fmt.Errorf("core: no relation for atom %s", a.Name)
		}
		if r.Arity() != len(a.Vars) {
			return fmt.Errorf("core: relation %s has arity %d, atom %s wants %d",
				r.Name(), r.Arity(), a.Name, len(a.Vars))
		}
	}
	return nil
}

// Reference evaluates the query on a single machine with the
// worst-case-optimal generic join — the ground truth for tests and
// examples. Its inputs are sets, as Execute's are: it does not call
// Distinct itself, so that a caller holding sets, as every benchmark
// oracle does, pays for no scan of them, and a caller holding a bag
// passes it through Distinct first.
func Reference(q hypergraph.Query, rels map[string]*relation.Relation) *relation.Relation {
	inputs := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		inputs[i] = rels[a.Name].Rename(a.Name, a.Vars...)
	}
	return relation.GenericJoin(q.Name, q.Vars(), inputs...)
}
