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
// SkewHC first identifies, per variable, the values with degree above
// N/p (the heavy hitters — at most p per attribute), then runs one
// sub-HyperCube per heavy/light pattern, giving heavy variables a share
// of 1 and re-optimizing the light shares for the residual query. Every
// output tuple has exactly one true pattern, so the union of the
// pattern sub-joins is the join, without duplicates.
package hypercube

import (
	"fmt"
	"slices"
	"sort"

	"mpcquery/internal/cost"
	"mpcquery/internal/fractional"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
	"mpcquery/internal/trace"
)

// Plan is a HyperCube share assignment for one query.
type Plan struct {
	Query  hypergraph.Query
	Vars   []string // q.Vars() order; dimension i belongs to Vars[i]
	Shares []int    // one per variable; product ≤ p
	Seeds  []uint64 // per-variable hash seeds (independent hash functions)

	stride []int // cached mixed-radix strides
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
	for i := range seeds {
		seeds[i] = seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	}
	pl := &Plan{Query: q, Vars: vars, Shares: shares, Seeds: seeds}
	pl.stride = pl.strides()
	return pl
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

// varIndex returns the dimension of variable v.
func (pl *Plan) varIndex(v string) int {
	for i, x := range pl.Vars {
		if x == v {
			return i
		}
	}
	return -1
}

// strides returns mixed-radix strides: server = Σ coord[i]·stride[i].
func (pl *Plan) strides() []int {
	k := len(pl.Shares)
	st := make([]int, k)
	acc := 1
	for i := k - 1; i >= 0; i-- {
		st[i] = acc
		acc *= pl.Shares[i]
	}
	return st
}

// Route is one atom's cell route under a plan, compiled once per round
// (slide 37): the dimensions of the atom's variables are fixed by
// hashing the tuple's values, the remaining dimensions range over their
// full shares. A row of the atom, in atom-variable order, goes to cell
// Base(row)+o for each o in Offsets, in that order.
type Route struct {
	hashed []hashedDim
	// Offsets are the free dimensions' cell offsets, dimension 0
	// outermost. Read-only.
	Offsets []int
}

// hashedDim is one dimension an atom fixes: coordinate
// Hash64(row[col], seed) mod share, weighted by the dimension's stride.
type hashedDim struct {
	col           int
	seed          uint64
	share, stride int
}

// Route compiles the route of atom a under pl. It panics if a has a
// variable the plan does not. A variable the atom repeats is hashed from
// its last column.
func (pl *Plan) Route(a hypergraph.Atom) Route {
	col := make([]int, len(pl.Vars))
	for d := range col {
		col[d] = -1
	}
	for ai, v := range a.Vars {
		d := pl.varIndex(v)
		if d < 0 {
			panic(fmt.Sprintf("hypercube: atom %s var %s not in plan", a.Name, v))
		}
		col[d] = ai
	}
	rt := Route{Offsets: []int{0}}
	for d, share := range pl.Shares {
		switch {
		case share == 1: // coordinate 0 whether fixed or free
		case col[d] >= 0:
			rt.hashed = append(rt.hashed, hashedDim{col: col[d], seed: pl.Seeds[d], share: share, stride: pl.stride[d]})
		default:
			offs := make([]int, 0, len(rt.Offsets)*share)
			for _, o := range rt.Offsets {
				for c := 0; c < share; c++ {
					offs = append(offs, o+c*pl.stride[d])
				}
			}
			rt.Offsets = offs
		}
	}
	return rt
}

// routes compiles the route of every atom, in order.
func (pl *Plan) routes(atoms []hypergraph.Atom) []Route {
	rts := make([]Route, len(atoms))
	for i, a := range atoms {
		rts[i] = pl.Route(a)
	}
	return rts
}

// Base returns the cell that row's hashed coordinates address, every
// free coordinate being 0.
func (rt Route) Base(row []relation.Value) int {
	b := 0
	for _, h := range rt.hashed {
		b += int(relation.Hash64(row[h.col], h.seed)%uint64(h.share)) * h.stride
	}
	return b
}

// Send sends row to every cell of its route on st.
func (rt Route) Send(st *mpc.Stream, row []relation.Value) {
	b := rt.Base(row)
	for _, o := range rt.Offsets {
		st.SendRow(b+o, row)
	}
}

// Result describes a HyperCube execution.
type Result struct {
	OutName string
	Rounds  int
	Plan    *Plan
	// Patterns holds SkewHC's per-pattern sub-plans (nil for plain runs).
	Patterns []PatternPlan
}

// LocalAlg selects the local join algorithm each server runs after the
// shuffle (slide 32: the local algorithm is independent of the parallel
// one).
type LocalAlg int

// Local join algorithm choices.
const (
	// LocalGeneric is the worst-case-optimal generic join — the default;
	// it never builds oversized intermediates on cyclic queries.
	LocalGeneric LocalAlg = iota
	// LocalBinary evaluates by iterative binary hash joins; exists as an
	// ablation baseline (slide 63's intermediate blowup can resurface
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

// shuffle is one server's side of a plain HyperCube shuffle: for every
// atom with a local fragment, rows [lo, hi) of it, lo and hi being span
// of its length, go to every cell of the atom's route (routes[i] for
// atoms[i]) on the stream outName:atom. It counts each destination
// first and presizes the stream, so routing a fragment allocates the
// same whatever its length.
func shuffle(srv *mpc.Server, out *mpc.Out, atoms []hypergraph.Atom, routes []Route, outName string, span func(n int) (lo, hi int)) {
	counts := make([]int, srv.P())
	var bases []int32
	for ai, a := range atoms {
		frag := srv.Rel(a.Name)
		if frag == nil {
			continue
		}
		st := out.Open(outName+":"+a.Name, a.Vars...)
		rt := routes[ai]
		lo, hi := span(frag.Len())
		bases = slices.Grow(bases[:0], hi-lo)
		clear(counts)
		for i := lo; i < hi; i++ {
			b := rt.Base(frag.Row(i))
			bases = append(bases, int32(b))
			for _, o := range rt.Offsets {
				counts[b+o]++
			}
		}
		for d, n := range counts {
			st.Grow(d, n)
		}
		for i, b := range bases {
			row := frag.Row(lo + i)
			for _, o := range rt.Offsets {
				st.SendRow(int(b)+o, row)
			}
		}
	}
}

// allRows is the shuffle span of a whole fragment.
func allRows(n int) (lo, hi int) { return 0, n }

// Run executes the one-round HyperCube algorithm with LP-optimal shares
// and leaves the join result (schema = q.Vars()) distributed under
// outName.
func Run(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, alg LocalAlg) (*Result, error) {
	pl, err := NewPlan(q, Sizes(q, rels), c.P(), seed)
	if err != nil {
		return nil, err
	}
	return RunWithPlan(c, pl, rels, outName, alg), nil
}

// RunWithPlan executes HyperCube with an explicit plan.
func RunWithPlan(c *mpc.Cluster, pl *Plan, rels map[string]*relation.Relation, outName string, alg LocalAlg) *Result {
	q := pl.Query
	bound := cost.BindAtoms(q, rels)
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(bound[a.Name])
	}
	trace.Annotatef(c, "hypercube.Run %s shares %v on %v", q.Name, pl.Shares, pl.Vars)
	start := c.Metrics().Rounds()
	atoms, routes := q.Atoms, pl.routes(q.Atoms)
	c.Round("hypercube:shuffle", func(srv *mpc.Server, out *mpc.Out) {
		shuffle(srv, out, atoms, routes, outName, allRows)
	})
	localJoin(c, q, outName, "", alg)
	return &Result{OutName: outName, Rounds: c.Metrics().Rounds() - start, Plan: pl}
}

// localJoin joins each server's atom fragments (stored under
// outName+":"+atom+suffix) into outName (appending).
func localJoin(c *mpc.Cluster, q hypergraph.Query, outName, suffix string, alg LocalAlg) {
	vars := q.Vars()
	c.LocalStep(func(srv *mpc.Server) { joinFragments(srv, q.Atoms, vars, outName, suffix, alg) })
}

// joinFragments is localJoin on one server: it consumes the fragments
// outName+":"+atom+suffix and appends their join to outName.
func joinFragments(srv *mpc.Server, atoms []hypergraph.Atom, vars []string, outName, suffix string, alg LocalAlg) {
	inputs := make([]*relation.Relation, len(atoms))
	for i, a := range atoms {
		inputs[i] = srv.RelOrEmpty(outName+":"+a.Name+suffix, a.Vars...)
		srv.Delete(outName + ":" + a.Name + suffix)
	}
	var joined *relation.Relation
	switch alg {
	case LocalGeneric:
		joined = relation.GenericJoin(outName, vars, inputs...)
	case LocalBinary:
		joined = relation.MultiJoin(outName, inputs...).Project(outName, vars...)
	default:
		panic("hypercube: unknown local algorithm")
	}
	if prev := srv.Rel(outName); prev != nil {
		prev.AppendAll(joined)
	} else {
		srv.Put(joined)
	}
}

// PatternPlan describes one heavy/light pattern of a SkewHC execution.
type PatternPlan struct {
	Heavy  map[string]bool // variables bound to heavy values
	Plan   *Plan           // shares: 1 on heavy vars, optimized on light
	TauRes float64         // τ* of the residual query (for reporting)
}

// RunSkewHC executes the SkewHC algorithm of slides 47–51:
//
//	round 1: per-variable degree summaries are exchanged;
//	round 2: owners broadcast each variable's heavy hitters
//	         (degree ≥ threshold; threshold = N_max/p if ≤ 0);
//	round 3: one sub-HyperCube per heavy/light pattern, all in the same
//	         round; heavy variables get share 1, light shares are
//	         re-optimized for the pattern's residual query.
//
// Every server then joins each pattern's fragments separately and the
// union of the pattern joins is the answer, exactly once.
func RunSkewHC(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, threshold int, alg LocalAlg) (*Result, error) {
	p := c.P()
	bound := cost.BindAtoms(q, rels)
	maxN := 0
	for _, r := range bound {
		if r.Len() > maxN {
			maxN = r.Len()
		}
	}
	if threshold <= 0 {
		threshold = maxN / p
		if threshold < 1 {
			threshold = 1
		}
	}
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(bound[a.Name])
	}
	trace.Annotatef(c, "hypercube.RunSkewHC %s (heavy threshold %d)", q.Name, threshold)
	start := c.Metrics().Rounds()
	vars := q.Vars()
	varIdx := map[string]int{}
	for i, v := range vars {
		varIdx[v] = i
	}
	atoms := q.Atoms

	// Round 1: per-(variable, value) degree summaries to owner servers.
	c.Round("skewhc:degrees", func(srv *mpc.Server, out *mpc.Out) {
		st := out.Open(outName+":deg", "var", "v", "d")
		counts := map[[2]relation.Value]int{}
		for _, a := range atoms {
			frag := srv.Rel(a.Name)
			if frag == nil {
				continue
			}
			for _, v := range a.Vars {
				col := frag.MustCol(v)
				vi := relation.Value(varIdx[v])
				for i := 0; i < frag.Len(); i++ {
					counts[[2]relation.Value{vi, frag.Row(i)[col]}]++
				}
			}
		}
		keys := make([][2]relation.Value, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a][0] != keys[b][0] {
				return keys[a][0] < keys[b][0]
			}
			return keys[a][1] < keys[b][1]
		})
		for _, k := range keys {
			dst := relation.Bucket(relation.Hash64(k[1], 0x5eed)^uint64(k[0]), p)
			st.Send(dst, k[0], k[1], relation.Value(counts[k]))
		}
	})

	// Round 2: owners aggregate and broadcast heavy hitters.
	thr := threshold
	c.Round("skewhc:heavy", func(srv *mpc.Server, out *mpc.Out) {
		st := out.Open(outName+":heavy", "var", "v")
		deg := srv.Rel(outName + ":deg")
		if deg == nil {
			return
		}
		agg := map[[2]relation.Value]int{}
		for i := 0; i < deg.Len(); i++ {
			row := deg.Row(i)
			agg[[2]relation.Value{row[0], row[1]}] += int(row[2])
		}
		keys := make([][2]relation.Value, 0, len(agg))
		for k := range agg {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a][0] != keys[b][0] {
				return keys[a][0] < keys[b][0]
			}
			return keys[a][1] < keys[b][1]
		})
		for _, k := range keys {
			if agg[k] >= thr {
				st.Broadcast(k[0], k[1])
			}
		}
		srv.Delete(outName + ":deg")
	})

	// Driver derives the (globally agreed) heavy sets from server 0.
	heavyByVar := make([]map[relation.Value]bool, len(vars))
	for i := range heavyByVar {
		heavyByVar[i] = map[relation.Value]bool{}
	}
	if hrel := c.Server(0).Rel(outName + ":heavy"); hrel != nil {
		for i := 0; i < hrel.Len(); i++ {
			row := hrel.Row(i)
			heavyByVar[int(row[0])][row[1]] = true
		}
	}
	c.DeleteAll(outName + ":heavy")

	// Enumerate patterns; skip heavy patterns over vars with no heavy
	// values (they'd be empty).
	var patterns []PatternPlan
	for _, heavy := range q.VarSubsets() {
		skip := false
		for v := range heavy {
			if heavy[v] && len(heavyByVar[varIdx[v]]) == 0 {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		res, _ := q.Residual(heavy)
		var subPlan *Plan
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
		subPlan = PlanWithShares(q, shares, seed+uint64(len(patterns))+1)
		patterns = append(patterns, PatternPlan{Heavy: heavy, Plan: subPlan, TauRes: tauRes})
	}

	// Round 3: route every tuple under every pattern consistent with its
	// own variables' heavy status.
	hbv := heavyByVar
	pats := patterns
	routes := make([][]Route, len(pats)) // routes[pattern][atom]
	for pi, pat := range pats {
		routes[pi] = pat.Plan.routes(atoms)
	}
	c.Round("skewhc:shuffle", func(srv *mpc.Server, out *mpc.Out) {
		sts := make([]*mpc.Stream, len(pats))
		for ai, a := range atoms {
			frag := srv.Rel(a.Name)
			if frag == nil {
				continue
			}
			heavy := make([]map[relation.Value]bool, len(a.Vars))
			for j, v := range a.Vars {
				heavy[j] = hbv[varIdx[v]]
			}
			for pi := range pats {
				sts[pi] = out.Open(fmt.Sprintf("%s:%s@%d", outName, a.Name, pi), a.Vars...)
			}
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				for pi, pat := range pats {
					match := true
					for j, v := range a.Vars {
						if heavy[j][row[j]] != pat.Heavy[v] {
							match = false
							break
						}
					}
					if match {
						routes[pi][ai].Send(sts[pi], row)
					}
				}
			}
		}
	})
	// Local join per pattern; union the results.
	for pi := range patterns {
		localJoin(c, q, outName, fmt.Sprintf("@%d", pi), alg)
	}
	return &Result{
		OutName:  outName,
		Rounds:   c.Metrics().Rounds() - start,
		Patterns: patterns,
	}, nil
}

// HeavyByVar computes, centrally, the per-variable heavy-hitter sets
// for the given threshold — a verification helper mirroring what the
// distributed rounds of RunSkewHC compute. Relations are positional to
// their atom's variables.
func HeavyByVar(q hypergraph.Query, rels map[string]*relation.Relation, threshold int) map[string]map[relation.Value]bool {
	out := map[string]map[relation.Value]bool{}
	for _, v := range q.Vars() {
		agg := stats.Degrees{}
		for _, a := range q.Atoms {
			if col := slices.Index(a.Vars, v); col >= 0 {
				agg.Merge(stats.DegreesOfCol(rels[a.Name], col))
			}
		}
		out[v] = agg.HeavySet(threshold)
	}
	return out
}
