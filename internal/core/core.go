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
//     (slide 78), HyperCube otherwise;
//   - multiway cyclic queries: SkewHC when any variable has heavy
//     hitters, plain HyperCube otherwise (slides 34–51).
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
// ledger, next to the result.
//
// Semantics: inputs are sets, as everywhere in the MPC join theory, and
// on sets every algorithm returns each output binding exactly once.
// The engine does not deduplicate its inputs: a duplicate input tuple
// may repeat bindings, and how often depends on the algorithm. Callers
// holding bags deduplicate once before executing (cmd/mpcserve does at
// load); workloads needing SQL bag semantics (e.g. SUM over a join with
// duplicate rows) should carry a unique key column, as the analytics
// example does.
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
	"mpcquery/internal/trace"
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
	// bit-identical executions.
	Seed int64
	// Chaos, when non-nil, attaches this fault schedule to every cluster
	// the engine builds (typically a *chaos.Schedule). Executions then
	// run the mpc recovery protocol: they either complete with output
	// and (L, r, C) identical to the fault-free run, or panic with a
	// *mpc.RecoveryFailure (recoverable via chaos.Capture).
	Chaos mpc.FaultInjector
	// Trace, when non-nil, attaches this event recorder to every cluster
	// the engine builds. Executions append their per-round send/recv/skew
	// events (and, under Chaos, the recovery events) to the recorder;
	// export with trace.WriteJSONL or trace.WriteChrome.
	Trace *trace.Recorder
	// Transport, when non-nil, routes every cluster's round delivery
	// through this backend (typically an *mpcnet.Transport dialed for P
	// servers) instead of the default in-process one. Conforming
	// transports are observably identical — same output, (L, r, C), and
	// trace events — so this selects *where bytes move*, never *what the
	// simulation computes*. The engine does not close the transport.
	Transport mpc.Transport
	// Adaptive, when true, reroutes HyperCube executions through the
	// skew-reactive driver (hypercube.RunAdaptive): a metered probe
	// round feeds a receive-skew signal into a mid-query re-plan that
	// switches to SkewHC when the uniform plan's skew prediction turns
	// out wrong. Takes precedence over Capacities for HyperCube plans.
	Adaptive bool
	// Capacities, when non-nil, declares a heterogeneous per-server
	// capacity profile (len must equal P, entries > 0). Clusters carry
	// the profile, Metrics.NormalizedMakespan can normalize by it, and
	// HyperCube executions run the capacity-aware plan
	// (hypercube.RunHet) that apportions grid cells in proportion to
	// capacity.
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
	// ExecuteRecursive. Its rows are distinct when the inputs are sets;
	// duplicate input tuples may repeat bindings.
	Output *relation.Relation
	// Algorithm is the planned (or forced) strategy; "fixpoint-<kind>"
	// for recursive runs. An adaptive run that switched to SkewHC
	// mid-query still reports the planned AlgHyperCube, so forcing
	// Algorithm again reproduces the run; Adaptive records the switch.
	Algorithm Algorithm
	// Reason explains the planner's choice (empty for recursion).
	Reason string
	// Iterations is the semi-naive iteration count (recursive only).
	Iterations int
	// Adaptive is the skew-reactive driver's decision record — switched
	// or not, the probe signal, the stated reason — when Engine.Adaptive
	// rerouted a HyperCube plan; nil otherwise.
	Adaptive *hypercube.AdaptiveResult
	// Rounds, MaxLoad and TotalComm are (r, L, C) read off Metrics, the
	// one ledger of the one cluster the execution ran on.
	Rounds    int
	MaxLoad   int64
	TotalComm int64
	Metrics   *mpc.Metrics
}

// Plan decides which algorithm to use for the request and explains why.
func (e *Engine) Plan(req Request) (Algorithm, string, error) {
	if err := validate(req); err != nil {
		return "", "", err
	}
	if req.Algorithm != "" && req.Algorithm != AlgAuto {
		return req.Algorithm, "forced by request", nil
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
			return AlgBroadcast, fmt.Sprintf("small side (%d tuples) ≤ IN/p = %d: broadcast it", small, in/e.P), nil
		}
		threshold := max(in/e.P, 1)
		hh := stats.JoinHeavyHitters(stats.DegreesOfCol(r, slices.Index(q.Atoms[0].Vars, y)),
			stats.DegreesOfCol(s, slices.Index(q.Atoms[1].Vars, y)), threshold)
		if len(hh) > 0 {
			return AlgSkewJoin, fmt.Sprintf("%d heavy hitters on %s (threshold %d): skew-aware join", len(hh), y, threshold), nil
		}
		return AlgHashJoin, "no skew detected: parallel hash join", nil
	}
	acyclic, _ := hypergraph.IsAcyclic(q)
	if acyclic {
		// GYM wins when OUT is small (slide 78); use the AGM bound as
		// the (worst-case) output estimate.
		agm, err := fractional.AGMBound(q, hypercube.Sizes(q, req.Relations))
		if err != nil {
			return "", "", err
		}
		ep, err := fractional.MaxEdgePacking(q)
		if err != nil {
			return "", "", err
		}
		crossover := cost.GYMCrossoverOut(float64(in), e.P, ep.Tau)
		if agm < crossover {
			return AlgGYMOptimized, fmt.Sprintf("acyclic, AGM bound %.0f < crossover %.0f: GYM", agm, crossover), nil
		}
		return AlgHyperCube, fmt.Sprintf("acyclic but AGM bound %.0f ≥ crossover %.0f: HyperCube", agm, crossover), nil
	}
	// Cyclic: HyperCube, skew-aware when needed.
	maxN := 0
	for _, a := range q.Atoms {
		if n := req.Relations[a.Name].Len(); n > maxN {
			maxN = n
		}
	}
	threshold := maxN / e.P
	if threshold < 1 {
		threshold = 1
	}
	heavy := hypercube.HeavyByVar(q, req.Relations, threshold)
	for v, set := range heavy {
		if len(set) > 0 {
			return AlgSkewHC, fmt.Sprintf("cyclic with heavy hitters on %s: SkewHC", v), nil
		}
	}
	return AlgHyperCube, "cyclic, no skew: one-round HyperCube", nil
}

// newCluster builds the engine's simulated cluster, attaching the
// fault schedule and trace recorder if configured.
func (e *Engine) newCluster() *mpc.Cluster {
	c := mpc.NewCluster(e.P, e.Seed)
	if e.Chaos != nil {
		c.SetFaultInjector(e.Chaos)
	}
	if e.Trace != nil {
		c.SetTracer(e.Trace)
	}
	c.SetTransport(e.Transport) // nil keeps the local default
	if e.Capacities != nil {
		c.SetCapacities(e.Capacities)
	}
	return c
}

// checkCapacities validates the engine's capacity profile before a
// cluster is built (SetCapacities would panic on the same conditions).
func (e *Engine) checkCapacities() error {
	if e.Capacities == nil {
		return nil
	}
	if len(e.Capacities) != e.P {
		return fmt.Errorf("core: %d capacities for %d servers", len(e.Capacities), e.P)
	}
	for i, cp := range e.Capacities {
		if cp <= 0 {
			return fmt.Errorf("core: capacity of server %d is %g, want > 0", i, cp)
		}
	}
	return nil
}

// run is the execution spine every entry point goes through: validate
// the engine, build the one cluster, let body compute on it and hand
// back the gathered output, then read (L, r, C) off that cluster's
// ledger. body may extend ex.Reason and set ex.Iterations/ex.Adaptive.
func (e *Engine) run(alg Algorithm, reason string, body func(c *mpc.Cluster, ex *Execution) (*relation.Relation, error)) (*Execution, error) {
	if err := e.checkCapacities(); err != nil {
		return nil, err
	}
	c := e.newCluster()
	ex := &Execution{Algorithm: alg, Reason: reason}
	out, err := body(c, ex)
	if err != nil {
		return nil, err
	}
	m := c.Metrics()
	ex.Output, ex.Metrics = out, m
	ex.Rounds, ex.MaxLoad, ex.TotalComm = m.Rounds(), m.MaxLoad(), m.TotalComm()
	return ex, nil
}

// Execute plans (unless forced) and runs the request, returning the
// gathered output and metered costs.
func (e *Engine) Execute(req Request) (*Execution, error) {
	alg, reason, err := e.Plan(req)
	if err != nil {
		return nil, err
	}
	return e.run(alg, reason, func(c *mpc.Cluster, ex *Execution) (*relation.Relation, error) {
		return e.join(c, ex, req)
	})
}

// join runs ex.Algorithm for the request's query on c and gathers the
// answer named Query.Name in Query.Vars() order: look the name up in
// the registry, ask its Applies, call its Run. The gather is the
// answer's one copy; a projection runs only when the algorithm left its
// columns in another order (broadcast with the second atom smaller,
// sortjoin with the join variable first in atom 0). The one special
// case is Adaptive, which swaps HyperCube's Run for the probe driver
// because the decision record it returns is a hypercube type.
func (e *Engine) join(c *mpc.Cluster, ex *Execution, req Request) (*relation.Relation, error) {
	q, alg := req.Query, ex.Algorithm
	trace.Annotatef(c, "plan %s: %s (%s)", q.Name, alg, ex.Reason)
	d := cost.Lookup(registry, string(alg))
	if d == nil {
		return nil, fmt.Errorf("core: unknown algorithm %q (have %s)", alg, strings.Join(cost.Names(registry), ", "))
	}
	if err := d.Applies(q); err != nil {
		return nil, fmt.Errorf("core: %s: %w", alg, err)
	}
	seed := uint64(e.Seed)*2654435761 + 12345
	const outName = "out"
	if alg == AlgHyperCube && e.Adaptive {
		res, err := hypercube.RunAdaptive(c, q, req.Relations, outName, seed, hypercube.AdaptiveConfig{})
		if err != nil {
			return nil, err
		}
		ex.Adaptive = res
		ex.Reason += "; adaptive: " + res.Reason
	} else {
		if err := d.Run(c, q, req.Relations, outName, seed); err != nil {
			return nil, err
		}
		if alg == AlgHyperCube && e.Capacities != nil {
			ex.Reason += fmt.Sprintf("; capacity-aware shares (effective p %.1f)", cost.EffectiveParallelism(e.Capacities))
		}
	}
	out := c.Gather(outName)
	if vars := q.Vars(); !slices.Equal(out.Attrs(), vars) {
		return out.Project(q.Name, vars...), nil
	}
	return out.Rename(q.Name), nil
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
// same cluster. The returned Execution's Output has schema GroupBy +
// OutAttr, and its metrics cover the join rounds and the aggregation
// round.
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
	alg, reason, err := e.Plan(req)
	if err != nil {
		return nil, err
	}
	return e.run(alg, reason, func(c *mpc.Cluster, ex *Execution) (*relation.Relation, error) {
		joined, err := e.join(c, ex, req)
		if err != nil {
			return nil, err
		}
		// The join output is gathered; re-scatter it for the group-by
		// round — placement is free in the model.
		trace.Annotatef(c, "aggregate group-by %v", spec.GroupBy)
		c.ScatterRoundRobin(joined.Rename("joined"))
		res, err := aggregate.Run(c, aggregate.Spec{
			Rel:     "joined",
			GroupBy: spec.GroupBy,
			Fn:      spec.Fn,
			AggAttr: spec.AggVar,
			OutAttr: spec.OutAttr,
			OutRel:  "agg",
			Seed:    uint64(e.Seed) ^ 0xa66,
		})
		if err != nil {
			return nil, err
		}
		ex.Reason += "; + distributed group-by with combiners"
		return c.Gather(res.OutRel), nil
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
// examples.
func Reference(q hypergraph.Query, rels map[string]*relation.Relation) *relation.Relation {
	inputs := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		inputs[i] = rels[a.Name].Rename(a.Name, a.Vars...)
	}
	return relation.GenericJoin(q.Name, q.Vars(), inputs...)
}
