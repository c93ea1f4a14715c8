package hypercube

import (
	"cmp"
	"math"
	"slices"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// Capacity-aware HyperCube (arXiv 2501.08896): on a cluster whose
// servers run at unequal rates, every server owns a box of a share grid
// — a product of one coordinate interval per variable — sized so that
// its predicted load per unit of capacity is even, and a tuple goes
// once to each server whose box meets its slab. Every variable occurs
// in some atom, so a binding whose atoms all reach a server lies in
// that server's box: one local join per server produces each answer
// exactly once.

// box is one server's part of a share grid: the cells whose coordinate
// in every dimension d lies in [lo[d], hi[d]). An empty box has hi = lo.
type box struct{ lo, hi []int }

// volume is the number of cells in b.
func (b box) volume() int {
	v := 1
	for d := range b.lo {
		v *= b.hi[d] - b.lo[d]
	}
	return v
}

// cut splits b at coordinate x of dimension d.
func (b box) cut(d, x int) (lo, hi box) {
	lo, hi = b, b
	lo.hi, hi.lo = slices.Clone(b.hi), slices.Clone(b.lo)
	lo.hi[d], hi.lo[d] = x, x
	return lo, hi
}

// boxes lays the grid of pl's shares out over servers of the given
// capacities by recursive bisection. The servers, fastest first (ties
// by id), are split into a prefix and the rest, and the box along one
// dimension; the dimension, prefix and cut are those that minimise the
// larger of the two halves' spread while leaving each half at least one
// cell per server. When the grid has fewer cells than servers, the
// slowest servers get empty boxes.
func boxes(pl *Plan, sizes map[string]int64, caps []float64) []box {
	k := len(pl.Shares)
	out := make([]box, len(caps))
	order := make([]int, len(caps))
	for i := range order {
		order[i] = i
		out[i] = box{lo: make([]int, k), hi: make([]int, k)}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(caps[b], caps[a]) })
	whole := box{lo: make([]int, k), hi: slices.Clone(pl.Shares)}
	bisect(pl, sizes, whole, order[:min(len(order), whole.volume())], caps, out)
	return out
}

// bisect gives b to the servers of order, which number at most its
// volume, writing each server's box into out.
func bisect(pl *Plan, sizes map[string]int64, b box, order []int, caps []float64, out []box) {
	if len(order) == 1 {
		out[order[0]] = b
		return
	}
	var lo, hi box
	bestK, best := 0, 0.0
	for d := range b.lo {
		ext := b.hi[d] - b.lo[d]
		slab := b.volume() / ext
		for k := 1; k < len(order); k++ {
			for t := 1; t < ext; t++ {
				if t*slab < k || (ext-t)*slab < len(order)-k {
					continue
				}
				l, h := b.cut(d, b.lo[d]+t)
				score := max(spread(pl, sizes, l, order[:k], caps), spread(pl, sizes, h, order[k:], caps))
				if bestK == 0 || score < best {
					lo, hi, bestK, best = l, h, k, score
				}
			}
		}
	}
	bisect(pl, sizes, lo, order[:bestK], caps, out)
	bisect(pl, sizes, hi, order[bestK:], caps, out)
}

// spread predicts the max load per unit of capacity over the servers
// of order, fastest first, if each got a box of b's shape scaled to its
// share of their capacity. That is the slowest server's: a smaller box
// meets more tuples per cell. A box's load is the expected number of
// each atom's tuples whose slab meets it, Σ_j |S_j| · Π over the
// dimensions of the atom's variables of extent/share.
func spread(pl *Plan, sizes map[string]int64, b box, order []int, caps []float64) float64 {
	var total float64
	for _, s := range order {
		total += caps[s]
	}
	slow := caps[order[len(order)-1]]
	wide := 0 // the dimensions of extent > 1, which scaling shrinks
	for d := range b.lo {
		if b.hi[d]-b.lo[d] > 1 {
			wide++
		}
	}
	var load float64
	for _, a := range pl.Query.Atoms {
		f, m := float64(sizes[a.Name]), 0
		for d, v := range pl.Vars {
			if slices.Contains(a.Vars, v) {
				f *= float64(b.hi[d]-b.lo[d]) / float64(pl.Shares[d])
				if b.hi[d]-b.lo[d] > 1 {
					m++
				}
			}
		}
		if wide > 0 {
			f *= math.Pow(slow/total, float64(m)/float64(wide))
		}
		load += f
	}
	return load / slow
}

// owners is the owner table of the layout bs of pl's grid: owner[c] is
// the server whose box holds cell c, the last dimension varying
// fastest.
func owners(pl *Plan, bs []box) []int {
	owner := make([]int, pl.GridSize())
	for s, b := range bs {
		var walk func(d, c int)
		walk = func(d, c int) {
			if d == len(b.lo) {
				owner[c] = s
				return
			}
			for x := b.lo[d]; x < b.hi[d]; x++ {
				walk(d+1, c*pl.Shares[d]+x)
			}
		}
		walk(0, 0)
	}
	return owner
}

// refinements are the grid sizes, in multiples of p, whose box layouts
// a capacity plan weighs.
var refinements = []int{1, 2, 4, 8}

// capacityPlan plans HyperCube for servers of the given capacities. It
// starts from NewPlan's grid with cell c on server c (every cell has
// the same predicted load, so the slowest server that hosts one sets
// its makespan), lays out NewPlan's grid for m·p cells in boxes for
// each refinement m, and keeps the first layout with the lowest
// predicted makespan, the max over servers of spread: where no box
// layout is predicted to beat plain HyperCube, it is plain HyperCube.
// The choice needs only the sizes and the capacities.
func capacityPlan(q hypergraph.Query, sizes map[string]int64, caps []float64, seed uint64) (*Plan, error) {
	p := len(caps)
	best, err := NewPlan(q, sizes, p, seed)
	if err != nil {
		return nil, err
	}
	slowest := slices.Min(caps[:min(p, best.GridSize())])
	cell := box{lo: make([]int, len(best.Shares)), hi: make([]int, len(best.Shares))}
	for d := range cell.hi {
		cell.hi[d] = 1
	}
	bestScore := spread(best, sizes, cell, []int{0}, []float64{slowest})
	for _, m := range refinements {
		pl, err := NewPlan(q, sizes, m*p, seed)
		if err != nil {
			return nil, err
		}
		bs, score := boxes(pl, sizes, caps), 0.0
		for s, b := range bs {
			if b.volume() > 0 {
				score = max(score, spread(pl, sizes, b, []int{s}, caps))
			}
		}
		if score < bestScore {
			pl.Owner = owners(pl, bs)
			best, bestScore = pl, score
		}
	}
	return best, nil
}

// RunHet executes capacity-aware HyperCube on the cluster's capacity
// profile (mpc.SetCapacities): capacityPlan's layout, one routing round
// that sends each tuple once to every server whose box meets its slab,
// and one local join per server. A cluster without a profile (an
// all-equal one is stored as none) runs Run.
func RunHet(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, alg LocalAlg) (*Result, error) {
	if c.Capacities() == nil {
		return Run(c, q, rels, outName, seed, alg)
	}
	pl, err := capacityPlan(q, Sizes(q, rels), c.Capacities(), seed)
	if err != nil {
		return nil, err
	}
	scatter(c, q, rels)
	return RunWithPlan(c, pl, outName, alg), nil
}
