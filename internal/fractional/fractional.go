// Package fractional computes the hypergraph LP quantities the MPC join
// theory is built on: the fractional edge packing number τ* (governing
// the skew-free one-round load IN/p^{1/τ*}, slide 40), the fractional
// edge cover number ρ* (governing the AGM output bound and multi-round
// lower bounds, slide 55), fractional vertex covers (the LP dual of
// packings), and the HyperCube share optimization (slide 38).
package fractional

import (
	"fmt"
	"math"
	"sort"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/lp"
)

// EdgePacking holds an optimal fractional edge packing: one weight per
// atom, in query atom order, with Σ_{e∋v} u_e ≤ 1 for every variable v.
// DualCover is the complementary optimal fractional *vertex cover*
// (one weight per variable, in q.Vars() order) recovered from the LP
// duals — by strong duality its total weight also equals τ* (slide 39),
// so the pair is a self-certifying optimality witness.
type EdgePacking struct {
	Weights   []float64
	Tau       float64 // τ* = Σ weights
	DualCover []float64
}

// MaxEdgePacking solves the fractional edge packing LP for q.
func MaxEdgePacking(q hypergraph.Query) (*EdgePacking, error) {
	m := len(q.Atoms)
	obj := make([]float64, m)
	for i := range obj {
		obj[i] = 1
	}
	p := lp.NewMaximize(obj)
	for _, v := range q.Vars() {
		row := make([]float64, m)
		for i, a := range q.Atoms {
			if a.HasVar(v) {
				row[i] = 1
			}
		}
		p.AddConstraint(row, lp.LE, 1)
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("edge packing LP for %s: %w", q.Name, err)
	}
	return &EdgePacking{Weights: sol.X, Tau: sol.Objective, DualCover: sol.Duals}, nil
}

// EdgeCover holds an optimal fractional edge cover: one weight per atom
// with Σ_{e∋v} w_e ≥ 1 for every variable v.
type EdgeCover struct {
	Weights []float64
	Rho     float64 // ρ* = Σ weights
}

// MinEdgeCover solves the fractional edge cover LP for q. Every
// variable must occur in at least one atom (guaranteed by construction
// of Query), so the LP is always feasible.
func MinEdgeCover(q hypergraph.Query) (*EdgeCover, error) {
	m := len(q.Atoms)
	obj := make([]float64, m)
	for i := range obj {
		obj[i] = 1
	}
	p := lp.NewMinimize(obj)
	for _, v := range q.Vars() {
		row := make([]float64, m)
		for i, a := range q.Atoms {
			if a.HasVar(v) {
				row[i] = 1
			}
		}
		p.AddConstraint(row, lp.GE, 1)
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("edge cover LP for %s: %w", q.Name, err)
	}
	return &EdgeCover{Weights: sol.X, Rho: sol.Objective}, nil
}

// AGMBound returns the AGM bound on the output size of q for the given
// relation sizes (slide 55): min over fractional edge covers w of
// Π_j |S_j|^{w_j}. sizes maps atom name to cardinality; all atoms must
// be present and positive.
func AGMBound(q hypergraph.Query, sizes map[string]int64) (float64, error) {
	m := len(q.Atoms)
	obj := make([]float64, m)
	for i, a := range q.Atoms {
		n, ok := sizes[a.Name]
		if !ok || n <= 0 {
			return 0, fmt.Errorf("AGM bound: missing or non-positive size for atom %s", a.Name)
		}
		obj[i] = math.Log(float64(n))
	}
	p := lp.NewMinimize(obj)
	for _, v := range q.Vars() {
		row := make([]float64, m)
		for i, a := range q.Atoms {
			if a.HasVar(v) {
				row[i] = 1
			}
		}
		p.AddConstraint(row, lp.GE, 1)
	}
	sol, err := p.Solve()
	if err != nil {
		return 0, fmt.Errorf("AGM LP for %s: %w", q.Name, err)
	}
	return math.Exp(sol.Objective), nil
}

// PackingLoad evaluates the load lower-bound expression of one edge
// packing u for the given sizes and server count (slide 40):
// (Π_j |S_j|^{u_j} / p)^{1/Σ u_j}. A zero packing yields load 0.
func PackingLoad(q hypergraph.Query, sizes map[string]int64, u []float64, p int) float64 {
	sum := 0.0
	logProd := 0.0
	for i, a := range q.Atoms {
		sum += u[i]
		if u[i] > 0 {
			logProd += u[i] * math.Log(float64(sizes[a.Name]))
		}
	}
	if sum <= 1e-12 {
		return 0
	}
	return math.Exp((logProd - math.Log(float64(p))) / sum)
}

// Shares is an optimized HyperCube share assignment.
type Shares struct {
	Vars       []string  // variable order (q.Vars())
	Exponents  []float64 // fractional share exponents e_v with Σ e_v ≤ 1; p_v = p^{e_v}
	Fractional []float64 // fractional shares p^{e_v}
	Integer    []int     // integer shares, Π ≤ p
	// PredictedLoad is the skew-free per-atom maximum expected load
	// max_j |S_j| / Π_{v ∈ S_j} p_v using the *integer* shares.
	PredictedLoad float64
	// FractionalLoad is the same using fractional shares: the LP
	// optimum, equal by duality to the max over edge packings.
	FractionalLoad float64
}

// OptimalShares solves the share-optimization LP (slide 38): choose
// exponents e_v ≥ 0 with Σ e_v ≤ 1 minimizing
// max_j log|S_j| − (Σ_{v∈S_j} e_v)·log p, then rounds the resulting
// fractional shares p^{e_v} to integers with product ≤ p.
//
// The LP only prices the largest atom term, so it usually has many
// optimal vertices; on a path it may spend shares on the endpoints,
// which only adds replication. Dominated variables (Afrati & Ullman,
// EDBT 2010) are therefore pinned to e_u = 0 (they get no LP column),
// so the rounding gives them share 1: u is dominated when another
// variable v occurs in every atom u occurs in, and in strictly more
// atoms, or in the same atoms and earlier in q.Vars(). Moving u's share
// onto v keeps Π_v p_v, leaves Π_{x∈S_j} p_x unchanged for every atom
// with u and raises it for every atom with v but not u, so no term
// |S_j|/Π_{x∈S_j} p_x rises and neither does C = Σ_j |S_j|·Π_{x∉S_j} p_x.
// FractionalLoad is the LP optimum either way; only the choice among
// tied optimal vertices moves.
func OptimalShares(q hypergraph.Query, sizes map[string]int64, p int) (*Shares, error) {
	if p < 1 {
		return nil, fmt.Errorf("OptimalShares: p = %d", p)
	}
	vars := q.Vars()
	logp := math.Log(float64(p))
	// Only the variables no other variable dominates get an LP column;
	// the rest keep e_v = 0.
	free := undominated(q, vars)
	k := len(free)
	// Columns: e_{free[0]}..e_{free[k-1]}, t+, t- (t = t+ - t- is the
	// max log-load).
	obj := make([]float64, k+2)
	obj[k] = 1
	obj[k+1] = -1
	prob := lp.NewMinimize(obj)
	// Σ e_v ≤ 1.
	row := make([]float64, k+2)
	for i := 0; i < k; i++ {
		row[i] = 1
	}
	prob.AddConstraint(row, lp.LE, 1)
	// For each atom: t ≥ log|S_j| − logp·Σ_{v∈S_j} e_v, i.e.
	// logp·Σ e_v + t+ − t− ≥ log|S_j|.
	for _, a := range q.Atoms {
		n, ok := sizes[a.Name]
		if !ok || n <= 0 {
			return nil, fmt.Errorf("OptimalShares: missing or non-positive size for atom %s", a.Name)
		}
		row := make([]float64, k+2)
		for c, i := range free {
			if a.HasVar(vars[i]) {
				row[c] = logp
			}
		}
		row[k] = 1
		row[k+1] = -1
		prob.AddConstraint(row, lp.GE, math.Log(float64(n)))
	}
	sol, err := prob.Solve()
	if err != nil {
		return nil, fmt.Errorf("share LP for %s: %w", q.Name, err)
	}
	exp := make([]float64, len(vars))
	for c, i := range free {
		exp[i] = sol.X[c]
	}
	frac := make([]float64, len(vars))
	for i := range frac {
		frac[i] = math.Pow(float64(p), exp[i])
	}
	ints := roundShares(frac, p)
	return &Shares{
		Vars:           vars,
		Exponents:      exp,
		Fractional:     frac,
		Integer:        ints,
		PredictedLoad:  maxAtomLoad(q, sizes, vars, toFloats(ints)),
		FractionalLoad: math.Exp(sol.Objective),
	}, nil
}

// undominated returns the indices of the variables of vars that no other
// variable dominates in the sense of OptimalShares.
func undominated(q hypergraph.Query, vars []string) []int {
	// covers reports whether v occurs in every atom u occurs in, and
	// whether it also occurs in one u does not.
	covers := func(v, u string) (all, more bool) {
		for _, a := range q.Atoms {
			switch inV := a.HasVar(v); {
			case a.HasVar(u) && !inV:
				return false, false
			case inV && !a.HasVar(u):
				more = true
			}
		}
		return true, more
	}
	var free []int
	for i, u := range vars {
		dominated := false
		for j, v := range vars {
			if all, more := covers(v, u); j != i && all && (more || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			free = append(free, i)
		}
	}
	return free
}

func toFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// maxAtomLoad computes max_j |S_j| / Π_{v∈S_j} p_v.
func maxAtomLoad(q hypergraph.Query, sizes map[string]int64, vars []string, shares []float64) float64 {
	load := 0.0
	for _, a := range q.Atoms {
		denom := 1.0
		for i, v := range vars {
			if a.HasVar(v) {
				denom *= shares[i]
			}
		}
		if l := float64(sizes[a.Name]) / denom; l > load {
			load = l
		}
	}
	return load
}

// RoundSharesFloor is the naive integer rounding: each fractional share
// is floored (clamped to ≥ 1). It never exceeds p but can leave many
// servers idle — the ablation baseline for the greedy rounding used by
// OptimalShares.
func RoundSharesFloor(frac []float64, p int) []int {
	ints := make([]int, len(frac))
	prod := 1
	for i, f := range frac {
		ints[i] = int(math.Floor(f + 1e-9))
		if ints[i] < 1 {
			ints[i] = 1
		}
		prod *= ints[i]
	}
	for prod > p {
		big := 0
		for i := range ints {
			if ints[i] > ints[big] {
				big = i
			}
		}
		if ints[big] == 1 {
			break
		}
		prod = prod / ints[big]
		ints[big]--
		prod *= ints[big]
	}
	return ints
}

// RoundSharesGreedy converts fractional shares to integers ≥ 1 whose
// product is ≤ p: floors first, then greedily increments the share with
// the largest deficit while the product stays within p — the standard
// HyperCube rounding heuristic (what OptimalShares uses).
func RoundSharesGreedy(frac []float64, p int) []int {
	return roundShares(frac, p)
}

func roundShares(frac []float64, p int) []int {
	k := len(frac)
	ints := make([]int, k)
	prod := 1
	for i, f := range frac {
		ints[i] = int(math.Floor(f + 1e-9))
		if ints[i] < 1 {
			ints[i] = 1
		}
		prod *= ints[i]
	}
	// Floor rounding can still overflow p when many floors round a value
	// like 2.999→2 but the true product was close to p... it cannot:
	// floors only shrink the product, and Π frac ≤ p. Guard anyway for
	// numeric drift.
	for prod > p {
		// Shrink the largest share.
		big := 0
		for i := range ints {
			if ints[i] > ints[big] {
				big = i
			}
		}
		if ints[big] == 1 {
			break
		}
		prod = prod / ints[big]
		ints[big]--
		prod *= ints[big]
	}
	// Greedy growth: repeatedly bump the share with the largest deficit
	// frac[i]/ints[i] while the product stays ≤ p.
	for {
		best, bestGain := -1, 1.0
		for i := range ints {
			if prod/ints[i]*(ints[i]+1) > p {
				continue
			}
			gain := frac[i] / float64(ints[i])
			if gain > bestGain+1e-12 {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		prod = prod / ints[best] * (ints[best] + 1)
		ints[best]++
	}
	return ints
}

// TopPackings enumerates the vertices of the edge-packing polytope that
// the slide-42 table shows for the triangle: the all-|supp| packings
// obtained by restricting to each subset of atoms and solving the LP
// with the others forced to zero. It returns each packing with its
// PackingLoad, sorted by decreasing load. Intended for small queries.
func TopPackings(q hypergraph.Query, sizes map[string]int64, p int) []PackingRow {
	m := len(q.Atoms)
	if m > 12 {
		panic("fractional: TopPackings only supports small queries")
	}
	var rows []PackingRow
	for mask := 0; mask < 1<<m; mask++ {
		u, err := maxPackingOnSupport(q, mask)
		if err != nil {
			continue
		}
		load := PackingLoad(q, sizes, u, p)
		rows = append(rows, PackingRow{Weights: u, Load: load})
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].Load > rows[b].Load })
	return dedupRows(rows)
}

// PackingRow pairs an edge packing with its load bound.
type PackingRow struct {
	Weights []float64
	Load    float64
}

func maxPackingOnSupport(q hypergraph.Query, mask int) ([]float64, error) {
	m := len(q.Atoms)
	obj := make([]float64, m)
	for i := 0; i < m; i++ {
		if mask&(1<<i) != 0 {
			obj[i] = 1
		}
	}
	p := lp.NewMaximize(obj)
	for _, v := range q.Vars() {
		row := make([]float64, m)
		for i, a := range q.Atoms {
			if a.HasVar(v) {
				row[i] = 1
			}
		}
		p.AddConstraint(row, lp.LE, 1)
	}
	for i := 0; i < m; i++ {
		if mask&(1<<i) == 0 {
			row := make([]float64, m)
			row[i] = 1
			p.AddConstraint(row, lp.EQ, 0)
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, err
	}
	return sol.X, nil
}

func dedupRows(rows []PackingRow) []PackingRow {
	var out []PackingRow
	for _, r := range rows {
		dup := false
		for _, o := range out {
			same := true
			for i := range r.Weights {
				if math.Abs(r.Weights[i]-o.Weights[i]) > 1e-6 {
					same = false
					break
				}
			}
			if same {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}
