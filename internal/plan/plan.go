// Package plan is the cost-based MPC query planner: it collects input
// statistics from the actual relations, asks every algorithm package
// for its cost prediction (each declares its algorithms once, as
// cost.Plannable descriptors carrying Applies, Predict and Run — the
// same descriptors core.Engine dispatches through), and picks the plan
// with the smallest predicted per-round load L subject to an optional
// round budget — the optimization objective of the MPC model itself
// (slides 12–15).
//
// The planner is self-validating: Execute runs the chosen plan through
// core.Engine and reports the ratio of predicted to metered load, so
// every execution doubles as a check of the cost model. Explain renders
// the full candidate table — predicted (L, r, C) for every applicable
// strategy and the rejection reason for every loser — deterministically
// (same query, statistics, and options produce byte-identical output),
// which is what `mpcrun -explain` prints.
package plan

import (
	"fmt"
	"slices"
	"sort"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/core"
	"mpcquery/internal/cost"
	"mpcquery/internal/fractional"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/matmul"
	"mpcquery/internal/relation"
	"mpcquery/internal/sortmpc"
	"mpcquery/internal/stats"
)

var registry = slices.Concat(
	core.Registry(),
	aggregate.Plannables(),
	sortmpc.Plannables(),
	matmul.Plannables(),
)

// Registry returns every Plannable descriptor in a fixed registration
// order (the EXPLAIN order before cost sorting): core.Registry, the
// algorithms the engine runs, then the aggregate / sorting / matrix
// primitives, whose Run is nil. Callers must not modify it.
func Registry() []cost.Plannable { return registry }

// CollectStats scans the relations once and builds the planner's input
// statistics: cardinalities, per-column distinct counts and maximum
// degrees, heavy-hitter counts (threshold max|S_j|/p, the slide-29
// convention), the AGM bound and the System-R output estimate.
// Relations are keyed by atom name with columns positional to the
// atom's variables, exactly as core.Request expects them.
func CollectStats(q hypergraph.Query, rels map[string]*relation.Relation, p int) (*cost.QueryStats, error) {
	if p < 1 {
		return nil, fmt.Errorf("plan: need p ≥ 1, got %d", p)
	}
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("plan: query %s has no atoms", q.Name)
	}
	st := &cost.QueryStats{
		Query:     q,
		P:         p,
		Sizes:     map[string]int64{},
		Distinct:  map[string]map[string]int{},
		MaxDeg:    map[string]map[string]int{},
		HeavyVars: map[string]int{},
	}
	var maxSize int64 = 1
	for _, a := range q.Atoms {
		r := rels[a.Name]
		if r == nil {
			return nil, fmt.Errorf("plan: missing relation for atom %s", a.Name)
		}
		if r.Arity() != len(a.Vars) {
			return nil, fmt.Errorf("plan: relation %s has arity %d, atom wants %d", a.Name, r.Arity(), len(a.Vars))
		}
		n := int64(r.Len())
		if n < 1 {
			n = 1
		}
		st.Sizes[a.Name] = n
		st.IN += n
		if n > maxSize {
			maxSize = n
		}
	}
	st.HeavyThreshold = int(maxSize / int64(p))
	if st.HeavyThreshold < 1 {
		st.HeavyThreshold = 1
	}
	for _, a := range q.Atoms {
		r := rels[a.Name]
		dist := map[string]int{}
		deg := map[string]int{}
		for ci, v := range a.Vars {
			freq := stats.DegreesOfCol(r, ci)
			dist[v] = max(len(freq), 1)
			deg[v] = max(freq.Max(), 1)
			// Heavy here is strictly above the threshold.
			if heavy := len(freq.HeavySet(st.HeavyThreshold + 1)); heavy > st.HeavyVars[v] {
				st.HeavyVars[v] = heavy
			}
		}
		st.Distinct[a.Name] = dist
		st.MaxDeg[a.Name] = deg
	}
	agm, err := fractional.AGMBound(q, st.Sizes)
	if err != nil {
		return nil, err
	}
	st.OutAGM = agm
	// The heavy-aware chain estimate equals the System-R EstimateOut on
	// skew-free inputs and only grows when correlated heavy hitters
	// would make the independence assumption collapse.
	st.OutEst = cost.ChainOut(st)
	return st, nil
}

// Options configures plan selection.
type Options struct {
	// MaxRounds rejects candidates predicting more rounds; 0 = no budget.
	MaxRounds int
	// Aggregate, when set, appends a combiner-style group-by round to
	// every candidate's estimate (the plan then executes through
	// core.ExecuteAggregate).
	Aggregate *core.AggregateSpec
	// Capacities, when non-empty, declares a heterogeneous per-server
	// capacity profile (len must equal the cluster's p, entries > 0).
	// Candidates are then costed against the profile's effective
	// parallelism Σc/max(c) — the honest p of an unequal cluster, since
	// per-round time is governed by the slowest machine's normalized
	// load — and Execute runs HyperCube plans through the
	// capacity-aware executor.
	Capacities []float64
}

// Candidate is one strategy's entry in the plan: its descriptor, its
// estimate when applicable, and why the planner did not choose it.
type Candidate struct {
	cost.Plannable
	// Est is the predicted cost; valid only when Applicable.
	Est cost.Estimate
	// Applicable records whether Applies accepted the query.
	Applicable bool
	// Rejection explains why this candidate lost (empty for the chosen
	// plan): the applicability error, the round budget, or how much
	// worse its predicted load is.
	Rejection string
}

// Plan is a costed, executable decision for one query instance.
type Plan struct {
	Stats *cost.QueryStats
	Opts  Options
	// Candidates holds every registry entry, sorted: applicable by
	// (L, r, C, name), then inapplicable executable strategies, then
	// primitives, both alphabetically.
	Candidates []Candidate
	// Chosen indexes the selected candidate in Candidates (-1 when no
	// strategy applies).
	Chosen int
}

// For collects statistics and chooses a plan in one call.
func For(q hypergraph.Query, rels map[string]*relation.Relation, p int, opts Options) (*Plan, error) {
	st, err := CollectStats(q, rels, p)
	if err != nil {
		return nil, err
	}
	return Choose(st, opts)
}

// Choose evaluates every registered strategy against the statistics and
// selects the applicable candidate with the minimum predicted load L
// among those within the round budget; ties break on fewer rounds, then
// less total communication, then name. The returned error is non-nil
// only when no candidate qualifies (the Plan still carries the full
// candidate table for EXPLAIN).
func Choose(st *cost.QueryStats, opts Options) (*Plan, error) {
	pl := &Plan{Stats: st, Opts: opts, Chosen: -1}
	// On a heterogeneous profile, cost candidates against the effective
	// parallelism Σc/max(c) instead of the machine count: per-round time
	// is the max capacity-normalized load, so an unequal cluster behaves
	// like a smaller uniform one. The plan keeps the real stats — only
	// prediction sees the deflated p.
	pst := st
	if len(opts.Capacities) > 0 {
		if ep := int(cost.EffectiveParallelism(opts.Capacities)); ep >= 1 && ep != st.P {
			deflated := *st
			deflated.P = ep
			pst = &deflated
		}
	}
	for _, pa := range registry {
		c := Candidate{Plannable: pa}
		if err := pa.Applies(st.Query); err != nil {
			c.Rejection = err.Error()
		} else if est, err := pa.Predict(pst); err != nil {
			c.Rejection = "prediction failed: " + err.Error()
		} else {
			c.Applicable = true
			c.Est = est
			if opts.Aggregate != nil {
				c.Est = addAggregateRound(pst, c.Est, opts.Aggregate)
			}
		}
		pl.Candidates = append(pl.Candidates, c)
	}
	sort.SliceStable(pl.Candidates, func(i, j int) bool {
		a, b := pl.Candidates[i], pl.Candidates[j]
		if a.Applicable != b.Applicable {
			return a.Applicable
		}
		if !a.Applicable {
			if (a.Run != nil) != (b.Run != nil) {
				return a.Run != nil
			}
			return a.Alg < b.Alg
		}
		if a.Est.L != b.Est.L {
			return a.Est.L < b.Est.L
		}
		if a.Est.R != b.Est.R {
			return a.Est.R < b.Est.R
		}
		if a.Est.C != b.Est.C {
			return a.Est.C < b.Est.C
		}
		return a.Alg < b.Alg
	})
	for i := range pl.Candidates {
		c := &pl.Candidates[i]
		if !c.Applicable {
			continue
		}
		if opts.MaxRounds > 0 && c.Est.R > opts.MaxRounds {
			c.Rejection = fmt.Sprintf("predicted r=%d exceeds round budget %d", c.Est.R, opts.MaxRounds)
			continue
		}
		if pl.Chosen < 0 {
			pl.Chosen = i
			continue
		}
		chosen := pl.Candidates[pl.Chosen].Est
		switch {
		case chosen.L <= 0:
			c.Rejection = "chosen plan predicts zero load"
		case c.Est.L > chosen.L:
			c.Rejection = fmt.Sprintf("predicted L %.2f× the chosen plan", c.Est.L/chosen.L)
		default:
			c.Rejection = "tied on L; loses the (r, C, name) tie-break"
		}
	}
	if pl.Chosen < 0 {
		return pl, fmt.Errorf("plan: no applicable strategy for %s within a budget of %d rounds", st.Query.Name, opts.MaxRounds)
	}
	return pl, nil
}

// addAggregateRound extends an estimate with the combiner group-by
// round: with local pre-aggregation each server ships at most its own
// group set, so the extra communication is min(OUT, p·groups) and the
// extra per-server load min(OUT/p, groups) (slides 87–90).
func addAggregateRound(st *cost.QueryStats, est cost.Estimate, spec *core.AggregateSpec) cost.Estimate {
	groups := aggregate.EstimateGroups(st, spec.GroupBy)
	p := float64(st.P)
	aggL := st.OutEst / p
	if groups < aggL {
		aggL = groups
	}
	aggC := st.OutEst
	if g := groups * p; g < aggC {
		aggC = g
	}
	est.R++
	if aggL > est.L {
		est.L = aggL
	}
	est.C += aggC
	if est.Detail != "" {
		est.Detail += "; "
	}
	est.Detail += fmt.Sprintf("+agg round, ≈%.4g groups", groups)
	return est
}

// Best returns the chosen candidate.
func (pl *Plan) Best() *Candidate {
	if pl.Chosen < 0 {
		return nil
	}
	return &pl.Candidates[pl.Chosen]
}
