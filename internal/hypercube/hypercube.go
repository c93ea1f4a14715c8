// Package hypercube implements the HyperCube (Shares) algorithm for
// one-round multiway joins in the MPC model (slides 34–45; Afrati &
// Ullman '10, Beame, Koutris & Suciu '13/'14), and SkewHC, its
// skew-resilient extension via heavy/light residual queries (slides
// 47–51).
//
// HyperCube organizes the p servers into a k-dimensional grid with one
// dimension (share) per query variable, Π shares ≤ p. Each tuple of an
// atom is replicated to every grid cell that agrees with the hashes of
// the variables the atom contains; every server then joins its corner
// of the space locally. With shares chosen by the LP of slide 38, the
// skew-free load is the optimal IN/p^{1/τ*}.
//
// SkewHC takes, per variable, the values with degree above N/p (the
// heavy hitters — at most p per attribute) and runs one sub-HyperCube
// per heavy/light pattern, giving heavy variables a share of 1 and
// re-optimizing the light shares for the residual query. Every output
// tuple has exactly one true pattern, so the union of the pattern
// sub-joins is the join, without duplicates. RunSkewHCKnown routes in
// one round on servers that know the heavy hitters (HeavyValues);
// RunSkewHC first finds them in two rounds.
package hypercube

import (
	"fmt"
	"slices"

	"mpcquery/internal/cost"
	"mpcquery/internal/fractional"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
)

// Plan is a HyperCube share assignment for one query.
type Plan struct {
	Query  hypergraph.Query
	Vars   []string // q.Vars() order; dimension i belongs to Vars[i]
	Shares []int    // one per variable; product ≤ p
	// Seeds holds dimension i's hash seed, mpc.HashSeed(seed, Vars[i]):
	// a dimension is named by its variable, so every plan under one
	// query seed hashes a variable alike, whatever its shares.
	Seeds []uint64
	// Owner[c] is the server that hosts cell c of the grid; nil hosts
	// cell c on server c. A capacity plan (RunHet) sets it to a box
	// layout.
	Owner []int
}

// NewPlan computes LP-optimal integer shares for the query given the
// relation sizes (sizes maps atom name → cardinality).
func NewPlan(q hypergraph.Query, sizes map[string]int64, p int, seed uint64) (*Plan, error) {
	sh, err := fractional.OptimalShares(q, sizes, p)
	if err != nil {
		return nil, fmt.Errorf("hypercube: %w", err)
	}
	return PlanWithShares(q, sh.Integer, seed), nil
}

// PlanWithShares builds a plan from explicit shares (one per variable in
// q.Vars() order). Used directly for ablations and by SkewHC's residual
// sub-plans.
func PlanWithShares(q hypergraph.Query, shares []int, seed uint64) *Plan {
	vars := q.Vars()
	if len(shares) != len(vars) {
		panic(fmt.Sprintf("hypercube: %d shares for %d variables", len(shares), len(vars)))
	}
	prod := 1
	for _, s := range shares {
		if s < 1 {
			panic("hypercube: share < 1")
		}
		prod *= s
	}
	seeds := make([]uint64, len(vars))
	for i, v := range vars {
		seeds[i] = mpc.HashSeed(seed, v)
	}
	return &Plan{Query: q, Vars: vars, Shares: shares, Seeds: seeds}
}

// GridSize returns the number of servers the plan actually addresses
// (the product of shares).
func (pl *Plan) GridSize() int {
	prod := 1
	for _, s := range pl.Shares {
		prod *= s
	}
	return prod
}

// Route compiles the route of atom a under pl into a grid policy
// (slide 37): the dimensions of a's variables are fixed by hashing the
// row's values, the remaining dimensions range over their full shares,
// and the row goes once to each owner of the cells so addressed. It
// panics if a has a variable the plan does not. A variable the atom
// repeats is hashed from its last column.
func (pl *Plan) Route(a hypergraph.Atom) mpc.Policy {
	cols := make([]int, len(pl.Vars))
	for d := range cols {
		cols[d] = -1
	}
	for ai, v := range a.Vars {
		d := slices.Index(pl.Vars, v)
		if d < 0 {
			panic(fmt.Sprintf("hypercube: atom %s var %s not in plan", a.Name, v))
		}
		cols[d] = ai
	}
	return mpc.Grid(pl.Shares, pl.Seeds, cols, pl.Owner)
}

// shuffle is one round that routes every atom's fragment, stored under
// from+atom, onto the stream outName:atom by the atom's policy.
func shuffle(c *mpc.Cluster, name string, atoms []hypergraph.Atom, from, outName string, policy func(hypergraph.Atom) mpc.Policy) {
	c.Shuffle(name, routes(atoms, from, outName, policy)...)
}

// routes lists shuffle's sends.
func routes(atoms []hypergraph.Atom, from, outName string, policy func(hypergraph.Atom) mpc.Policy) []mpc.Send {
	sends := make([]mpc.Send, len(atoms))
	for i, a := range atoms {
		sends[i] = mpc.Send{From: from + a.Name, To: outName + ":" + a.Name, Policy: policy(a)}
	}
	return sends
}

// Result describes a HyperCube execution.
type Result struct {
	Rounds int
	Plan   *Plan
	// Patterns holds SkewHC's per-pattern sub-plans (nil for plain runs).
	Patterns []PatternPlan
}

// LocalAlg selects how each server evaluates its local join after the
// shuffle: the multiway kernel, or a chain of two-input hash joins
// (slide 32: the local algorithm is independent of the parallel one).
type LocalAlg int

// Local join algorithm choices.
const (
	// LocalGeneric is the local join kernel, relation.GenericJoin —
	// the default: a worst-case-optimal generic join that never builds
	// an intermediate on cyclic queries; it picks its own binding
	// order, so its output rows come in no promised order.
	LocalGeneric LocalAlg = iota
	// LocalBinary joins the atoms left to right with two-input
	// relation.HashJoin, materializing every intermediate: ablation
	// A02's baseline (slide 63's intermediate blowup can resurface
	// locally with this choice).
	LocalBinary
)

// Sizes returns the cardinality of each atom's relation, clamped to at
// least 1: the share and bound LPs need positive sizes.
func Sizes(q hypergraph.Query, rels map[string]*relation.Relation) map[string]int64 {
	sizes := make(map[string]int64, len(q.Atoms))
	for _, a := range q.Atoms {
		sizes[a.Name] = max(int64(rels[a.Name].Len()), 1)
	}
	return sizes
}

// scatter binds rels to q's atoms (cost.BindAtoms) and places them
// round-robin, the inputs' initial placement. It returns the bound
// relations.
func scatter(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation) map[string]*relation.Relation {
	bound := cost.BindAtoms(q, rels)
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(bound[a.Name])
	}
	return bound
}

// Run executes the one-round HyperCube algorithm with LP-optimal shares
// and leaves the join result (schema = q.Vars()) distributed under
// outName. It places the inputs round-robin and runs RunWithPlan.
func Run(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, alg LocalAlg) (*Result, error) {
	pl, err := NewPlan(q, Sizes(q, rels), c.P(), seed)
	if err != nil {
		return nil, err
	}
	scatter(c, q, rels)
	return RunWithPlan(c, pl, outName, alg), nil
}

// RunWithPlan executes HyperCube with an explicit plan on the atom
// fragments already on the cluster: each atom of pl.Query held under its
// name, its columns the atom's variables, wherever an earlier round or
// the initial placement left it. The fragments stay in place.
func RunWithPlan(c *mpc.Cluster, pl *Plan, outName string, alg LocalAlg) *Result {
	q := pl.Query
	c.Note("hypercube.Run %s shares %v on %v", q.Name, pl.Shares, pl.Vars)
	start := c.Metrics().Rounds()
	shuffle(c, "hypercube:shuffle", q.Atoms, "", outName, pl.Route)
	localJoin(c, q, outName, "", alg)
	return &Result{Rounds: c.Metrics().Rounds() - start, Plan: pl}
}

// localJoin joins each server's atom fragments (stored under
// outName+":"+atom+suffix, which it consumes) into outName (appending).
func localJoin(c *mpc.Cluster, q hypergraph.Query, outName, suffix string, alg LocalAlg) {
	vars := q.Vars()
	c.LocalStep(func(srv *mpc.Server) {
		inputs := make([]*relation.Relation, len(q.Atoms))
		for i, a := range q.Atoms {
			inputs[i] = srv.RelOrEmpty(outName+":"+a.Name+suffix, a.Vars...)
			srv.Delete(outName + ":" + a.Name + suffix)
		}
		var joined *relation.Relation
		switch alg {
		case LocalGeneric:
			joined = relation.GenericJoin(outName, vars, inputs...)
		case LocalBinary:
			joined = inputs[0]
			for _, in := range inputs[1:] {
				joined = relation.HashJoin(outName, joined, in)
			}
			joined = joined.Project(outName, vars...)
		default:
			panic("hypercube: unknown local algorithm")
		}
		if prev := srv.Rel(outName); prev != nil {
			prev.AppendAll(joined)
		} else {
			srv.Put(joined)
		}
	})
}

// PatternPlan describes one heavy/light pattern of a SkewHC execution.
type PatternPlan struct {
	Heavy  map[string]bool // variables bound to heavy values
	Plan   *Plan           // shares: 1 on heavy vars, optimized on light
	TauRes float64         // τ* of the residual query (for reporting)
}

// Threshold is SkewHC's heavy-hitter degree N_max/p (slide 47), at
// least 1: N_max is the largest input relation of q.
func Threshold(q hypergraph.Query, rels map[string]*relation.Relation, p int) int {
	maxN := 0
	for _, a := range q.Atoms {
		maxN = max(maxN, rels[a.Name].Len())
	}
	return max(maxN/p, 1)
}

// HeavyValues returns the heavy hitters of variable v, sorted: the values
// whose degree summed over every atom column binding v reaches threshold.
// Relations are positional to their atom's variables. The planner calls
// it to choose SkewHC and the skewhc descriptor to route it, on the same
// relations.
func HeavyValues(q hypergraph.Query, rels map[string]*relation.Relation, v string, threshold int) []relation.Value {
	return values(stats.Heavy(varColumns(q, rels, v), threshold, stats.Summed))
}

// values lists the hitters' values, in order.
func values(hs []stats.Hitter) []relation.Value {
	var vs []relation.Value
	for _, h := range hs {
		vs = append(vs, h.Value)
	}
	return vs
}

// RunSkewHC executes the SkewHC algorithm of slides 47–51 on servers that
// do not know the heavy hitters:
//
//	rounds 1–2: detectHeavy finds each variable's heavy hitters
//	         (summed degree ≥ threshold; threshold = N_max/p if ≤ 0);
//	round 3: RunSkewHCKnown's routing round on the broadcast sets.
//
// The in-round detection is for callers without trusted statistics —
// the adaptive driver confirms its trigger with the same two rounds —
// and is the differential oracle of the one-round form.
func RunSkewHC(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, threshold int, alg LocalAlg) (*Result, error) {
	bound := scatter(c, q, rels)
	if threshold <= 0 {
		threshold = Threshold(q, bound, c.P())
	}
	c.Note("hypercube.RunSkewHC %s (heavy threshold %d)", q.Name, threshold)
	start := c.Metrics().Rounds()
	patterns, err := skewShuffle(c, q, bound, detectHeavy(c, q, bound, outName, seed, threshold), outName, seed, alg)
	if err != nil {
		return nil, err
	}
	return &Result{Rounds: c.Metrics().Rounds() - start, Patterns: patterns}, nil
}

// detectHeavy is SkewHC's two detection rounds (cost.DetectHeavy): it
// returns, per variable of q.Vars(), the values whose summed degree over
// the placed fragments of bound reaches threshold, sorted, one group
// per variable tagged by its index.
func detectHeavy(c *mpc.Cluster, q hypergraph.Query, bound map[string]*relation.Relation, outName string, seed uint64, threshold int) [][]relation.Value {
	vars := q.Vars()
	groups := make([][]stats.Column, len(vars))
	for i, v := range vars {
		groups[i] = varColumns(q, bound, v)
	}
	heavy := make([][]relation.Value, len(vars))
	for i, hs := range cost.DetectHeavy(c, "skewhc", outName, seed, groups, threshold, stats.Summed) {
		heavy[i] = values(hs)
	}
	return heavy
}

// varColumns lists the atom columns that bind variable v, in atom order.
// Relations are positional to their atom's variables.
func varColumns(q hypergraph.Query, rels map[string]*relation.Relation, v string) []stats.Column {
	var cols []stats.Column
	for _, a := range q.Atoms {
		if col := slices.Index(a.Vars, v); col >= 0 {
			cols = append(cols, stats.Column{Rel: rels[a.Name], Col: col})
		}
	}
	return cols
}

// RunSkewHCKnown executes SkewHC (slides 47–51) on servers that already
// know each variable's heavy hitters, as the one-round skew bounds
// assume (arXiv 1602.06236): heavy[i] lists those of q.Vars()[i],
// sorted. One round routes every tuple under every heavy/light pattern
// consistent with its own variables' heavy status — one sub-HyperCube
// per pattern, heavy variables at share 1 and the light shares
// re-optimized for the pattern's residual query — and every server
// joins each pattern's fragments separately: the union of the pattern
// joins is the answer, exactly once. With the heavy sets RunSkewHC's two
// rounds find, it routes exactly as RunSkewHC's third round.
func RunSkewHCKnown(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, heavy [][]relation.Value, alg LocalAlg) (*Result, error) {
	bound := scatter(c, q, rels)
	c.Note("hypercube.RunSkewHCKnown %s (known heavy hitters)", q.Name)
	start := c.Metrics().Rounds()
	patterns, err := skewShuffle(c, q, bound, heavy, outName, seed, alg)
	if err != nil {
		return nil, err
	}
	return &Result{Rounds: c.Metrics().Rounds() - start, Patterns: patterns}, nil
}

// skewShuffle is SkewHC's routing round and local joins, given each
// variable's sorted heavy hitters. Patterns that bind a variable with
// no heavy hitter to heavy are skipped (they would be empty).
func skewShuffle(c *mpc.Cluster, q hypergraph.Query, bound map[string]*relation.Relation, heavy [][]relation.Value, outName string, seed uint64, alg LocalAlg) ([]PatternPlan, error) {
	p := c.P()
	vars := q.Vars()
	varIdx := map[string]int{}
	for i, v := range vars {
		varIdx[v] = i
	}
	var patterns []PatternPlan
	for _, hv := range q.VarSubsets() {
		skip := false
		for v := range hv {
			if hv[v] && len(heavy[varIdx[v]]) == 0 {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		res, _ := q.Residual(hv)
		tauRes := 0.0
		shares := make([]int, len(vars))
		for i := range shares {
			shares[i] = 1
		}
		if len(res.Atoms) > 0 {
			ep, err := fractional.MaxEdgePacking(res)
			if err != nil {
				return nil, fmt.Errorf("skewhc pattern: %w", err)
			}
			tauRes = ep.Tau
			sh, err := fractional.OptimalShares(res, Sizes(res, bound), p)
			if err != nil {
				return nil, fmt.Errorf("skewhc shares: %w", err)
			}
			for i, v := range sh.Vars {
				shares[varIdx[v]] = sh.Integer[i]
			}
		}
		subPlan := PlanWithShares(q, shares, seed)
		patterns = append(patterns, PatternPlan{Heavy: hv, Plan: subPlan, TauRes: tauRes})
	}

	// A row of atom a takes pattern pi's grid when its heavy bits — bit
	// j set iff its j-th variable is heavy — are the ones pattern pi
	// gives the atom's variables.
	shuffle(c, "skewhc:shuffle", q.Atoms, "", outName, func(a hypergraph.Atom) mpc.Policy {
		sets := make([][]relation.Value, len(a.Vars))
		for j, v := range a.Vars {
			sets[j] = heavy[varIdx[v]]
		}
		want := make([]uint64, len(patterns))
		grids := make([]mpc.Policy, len(patterns))
		for pi, pat := range patterns {
			for j, v := range a.Vars {
				if pat.Heavy[v] {
					want[pi] |= 1 << j
				}
			}
			grids[pi] = pat.Plan.Route(a)
		}
		return mpc.Patterns(sets, want, grids...)
	})
	// Local join per pattern; union the results.
	for pi := range patterns {
		localJoin(c, q, outName, fmt.Sprintf("@%d", pi), alg)
	}
	return patterns, nil
}
