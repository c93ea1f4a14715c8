package cost

import (
	"fmt"
	"sort"
	"strings"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
)

// QueryStats carries everything the cost-based planner knows about one
// query instance: the query itself, per-atom cardinalities, per-column
// distinct counts and maximum value degrees (the skew evidence), and
// derived output estimates. internal/plan collects it from the actual
// relations; the Predict functions of every Plannable consume it.
//
// All estimates are in tuples, matching the simulator's metered unit.
type QueryStats struct {
	// Query is the conjunctive query being planned.
	Query hypergraph.Query
	// P is the cluster size the plan targets.
	P int
	// Sizes maps atom name to relation cardinality, clamped to ≥ 1 so
	// the LPs stay well-defined.
	Sizes map[string]int64
	// IN is the total input size Σ|S_j|.
	IN int64
	// Distinct maps atom → variable → number of distinct values in that
	// column (≥ 1).
	Distinct map[string]map[string]int
	// MaxDeg maps atom → variable → the maximum frequency of any single
	// value in that column — the planner's skew evidence.
	MaxDeg map[string]map[string]int
	// HeavyThreshold is the degree above which a value counts as heavy:
	// max atom cardinality / p, at least 1 (slide 29 / slide 47).
	HeavyThreshold int
	// HeavyVars maps variable → the number of heavy values observed on
	// it in any atom (0 = skew-free on that variable).
	HeavyVars map[string]int
	// OutAGM is the AGM worst-case output bound for Sizes.
	OutAGM float64
	// OutEst is the System-R-style expected output estimate (capped by
	// OutAGM); the formulas use it wherever the theory says "OUT".
	OutEst float64
}

// Skewed reports whether any variable carries a heavy hitter.
func (st *QueryStats) Skewed() bool {
	for _, n := range st.HeavyVars {
		if n > 0 {
			return true
		}
	}
	return false
}

// String renders the statistics deterministically (sorted by atom and
// variable name) — part of the byte-stable EXPLAIN contract.
func (st *QueryStats) String() string {
	var b strings.Builder
	atoms := make([]string, 0, len(st.Sizes))
	for _, a := range st.Query.Atoms {
		atoms = append(atoms, a.Name)
	}
	for _, name := range atoms {
		a := st.Query.Atom(name)
		fmt.Fprintf(&b, "%s: %d tuples", name, st.Sizes[name])
		for _, v := range a.Vars {
			fmt.Fprintf(&b, "  %s(V=%d,dmax=%d)", v, st.Distinct[name][v], st.MaxDeg[name][v])
		}
		b.WriteByte('\n')
	}
	heavy := make([]string, 0, len(st.HeavyVars))
	for v, n := range st.HeavyVars {
		if n > 0 {
			heavy = append(heavy, fmt.Sprintf("%s:%d", v, n))
		}
	}
	sort.Strings(heavy)
	if len(heavy) == 0 {
		fmt.Fprintf(&b, "heavy hitters: none (threshold %d)\n", st.HeavyThreshold)
	} else {
		fmt.Fprintf(&b, "heavy hitters (threshold %d): %s\n", st.HeavyThreshold, strings.Join(heavy, " "))
	}
	fmt.Fprintf(&b, "IN=%d  OUT≈%.4g  (AGM ≤ %.4g)\n", st.IN, st.OutEst, st.OutAGM)
	return b.String()
}

// Estimate is a predicted MPC cost: the three numbers of the model.
type Estimate struct {
	// L is the predicted max per-server per-round load in tuples.
	L float64
	// R is the predicted number of communication rounds.
	R int
	// C is the predicted total communication in tuples.
	C float64
	// Detail optionally explains the prediction (e.g. chosen shares).
	Detail string
}

func (e Estimate) String() string {
	s := fmt.Sprintf("L≈%.4g  r=%d  C≈%.4g", e.L, e.R, e.C)
	if e.Detail != "" {
		s += "  (" + e.Detail + ")"
	}
	return s
}

// Plannable is the one declaration of an algorithm: its core.Algorithm
// name, a one-line description, an applicability test (a nil error
// means the algorithm can run the query; the error text otherwise is
// both the EXPLAIN rejection reason and the engine's refusal), the cost
// prediction, and the entry point. Each algorithm package exports its
// descriptors via a Plannables() function; internal/core dispatches
// through them and internal/plan ranks them.
type Plannable struct {
	// Alg matches the core.Algorithm string used to force execution.
	Alg string
	// Doc is a one-line description shown by EXPLAIN -verbose.
	Doc string
	// Applies returns nil when the algorithm can run this query, or an
	// error explaining why not.
	Applies func(q hypergraph.Query) error
	// Predict returns the (L, r, C) estimate; called only when Applies
	// returned nil.
	Predict func(st *QueryStats) (Estimate, error)
	// Run executes the algorithm once Applies has accepted the query.
	Run RunFunc
}

// RunFunc runs a query on c and leaves the result (schema ⊇ q.Vars(),
// any column order) distributed under outName; rels are keyed by atom
// name, columns positional to the atom's variables (BindAtoms applies
// that convention). known is the heavy hitters the caller counted on
// rels, or nil: the skewjoin and skewhc descriptors route by it and
// count for themselves only when it is nil, and the others ignore it.
// internal/core gathers the result and projects it only when its
// columns are not already q.Vars() in order. It is testkit.Algo's
// signature, so a descriptor's Run goes into the differential walls.
type RunFunc = func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, known *stats.Known) error

// BindAtoms applies RunFunc's input convention: for every atom of q it
// returns rels[atom name] relabelled to the atom's name and variables.
// The relations are views sharing the inputs' storage, so the scatter
// that places them is the inputs' only copy. It panics on a missing
// relation, and Rename on an arity mismatch.
func BindAtoms(q hypergraph.Query, rels map[string]*relation.Relation) map[string]*relation.Relation {
	bound := make(map[string]*relation.Relation, len(q.Atoms))
	for _, a := range q.Atoms {
		r, ok := rels[a.Name]
		if !ok {
			panic(fmt.Sprintf("cost: no relation for atom %s", a.Name))
		}
		bound[a.Name] = r.Rename(a.Name, a.Vars...)
	}
	return bound
}

// Names lists the algorithm names of reg, in order.
func Names(reg []Plannable) []string {
	names := make([]string, len(reg))
	for i, pa := range reg {
		names[i] = pa.Alg
	}
	return names
}

// Lookup returns the descriptor named alg in reg, or nil.
func Lookup(reg []Plannable, alg string) *Plannable {
	for i := range reg {
		if reg[i].Alg == alg {
			return &reg[i]
		}
	}
	return nil
}

// ---- Shared estimation helpers ----

// ChainSizes estimates the size of every left-deep prefix join of the
// given atom order. Unlike the pure System-R estimate it tracks the
// maximum per-variable degree of the running intermediate, so values
// that are heavy in several relations compound multiplicatively — the
// regime where the independence assumption collapses (a Zipf hub
// variable shared by every atom of a star query joins dmax_R·dmax_S
// tuples from the top value alone, orders of magnitude above the
// independence estimate). out[i] is the estimated size after joining
// atoms[0..i]; out[0] = |atoms[0]|. Estimates only grow vs System-R,
// and skew-free inputs reduce to the System-R value exactly.
func ChainSizes(st *QueryStats, atomNames []string) []float64 {
	thr := float64(st.HeavyThreshold)
	type colStat struct{ deg, v float64 }
	a0 := st.Query.Atom(atomNames[0])
	inter := map[string]colStat{}
	size := float64(st.Sizes[a0.Name])
	for _, v := range a0.Vars {
		inter[v] = colStat{deg: float64(st.MaxDeg[a0.Name][v]), v: float64(st.Distinct[a0.Name][v])}
	}
	out := []float64{size}
	for _, name := range atomNames[1:] {
		a := st.Query.Atom(name)
		an := float64(st.Sizes[a.Name])
		sharedSet := map[string]bool{}
		var shared []string
		for _, v := range a.Vars {
			if _, ok := inter[v]; ok && !sharedSet[v] {
				shared = append(shared, v)
				sharedSet[v] = true
			}
		}
		newsize := size * an // Cartesian when no shared variable
		if len(shared) > 0 {
			light := size * an
			for _, s := range shared {
				v := inter[s].v
				if av := float64(st.Distinct[a.Name][s]); av > v {
					v = av
				}
				light /= v
			}
			// Heavy alignment: if either side concentrates a value of s
			// beyond the heavy threshold, assume the top values coincide
			// (the adversarial case) and charge their degree product.
			heavy := 0.0
			for _, s := range shared {
				di, da := inter[s].deg, float64(st.MaxDeg[a.Name][s])
				if (di > thr || da > thr) && di*da > heavy {
					heavy = di * da
				}
			}
			newsize = light + heavy
			if lim := size * an; newsize > lim {
				newsize = lim
			}
		}
		if newsize < 1 {
			newsize = 1
		}
		// Degree propagation into the new intermediate.
		fI, fA := newsize/size, newsize/an
		next := map[string]colStat{}
		for v, cs := range inter {
			d := cs.deg
			if sharedSet[v] {
				d *= float64(st.MaxDeg[a.Name][v])
			} else if fI > 1 {
				d *= fI
			}
			if d > newsize {
				d = newsize
			}
			next[v] = colStat{deg: d, v: cs.v}
		}
		for _, v := range a.Vars {
			if cs, ok := next[v]; ok {
				if av := float64(st.Distinct[a.Name][v]); av < cs.v {
					cs.v = av
					next[v] = cs
				}
				continue
			}
			d := float64(st.MaxDeg[a.Name][v])
			if fA > 1 {
				d *= fA
			}
			if d > newsize {
				d = newsize
			}
			next[v] = colStat{deg: d, v: float64(st.Distinct[a.Name][v])}
		}
		inter = next
		size = newsize
		out = append(out, size)
	}
	return out
}

// ChainOut is the heavy-aware whole-query output estimate: the last
// ChainSizes prefix over the query's atom order, capped at the AGM
// bound.
func ChainOut(st *QueryStats) float64 {
	names := make([]string, len(st.Query.Atoms))
	for i, a := range st.Query.Atoms {
		names[i] = a.Name
	}
	sizes := ChainSizes(st, names)
	est := sizes[len(sizes)-1]
	if st.OutAGM > 0 && est > st.OutAGM {
		est = st.OutAGM
	}
	return est
}

// HyperCubeReplication is the total communication of one HyperCube
// shuffle: Σ_j |S_j| · Π_{v ∉ vars(S_j)} p_v — every tuple of atom j is
// replicated once per grid cell it cannot address (slide 37). shares is
// indexed like vars.
func HyperCubeReplication(q hypergraph.Query, sizes map[string]int64, vars []string, shares []int) float64 {
	total := 0.0
	for _, a := range q.Atoms {
		repl := 1.0
		for i, v := range vars {
			if !a.HasVar(v) {
				repl *= float64(shares[i])
			}
		}
		total += float64(sizes[a.Name]) * repl
	}
	return total
}

// HyperCubeSkewedLoad predicts the metered per-server load of one
// HyperCube shuffle: the simulator counts every tuple a server
// receives in the round, so the expected load is the SUM over atoms of
// |S_j| / Π_{v ∈ vars(j)} p_v. Each atom's term is floored by its
// heavy-hitter bound — a value of degree d on variable x lands all d
// tuples in the same x-slice of the grid, spread only over the shares
// of the atom's other variables, i.e. at least d·p_x / Π_{v∈vars(j)}
// p_v tuples on one server (slide 46). shares is indexed like vars.
func HyperCubeSkewedLoad(st *QueryStats, vars []string, shares []int) float64 {
	share := map[string]float64{}
	for i, v := range vars {
		share[v] = float64(shares[i])
	}
	load := 0.0
	for _, a := range st.Query.Atoms {
		denom := 1.0
		for _, v := range a.Vars {
			denom *= share[v]
		}
		atomLoad := float64(st.Sizes[a.Name]) / denom
		for _, x := range a.Vars {
			d := float64(st.MaxDeg[a.Name][x])
			if l := d * share[x] / denom; l > atomLoad {
				atomLoad = l
			}
		}
		load += atomLoad
	}
	return load
}
