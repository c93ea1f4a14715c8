package hypergraph

import (
	"fmt"
	"sort"
)

// Generalized hypertree decompositions (GHDs). A GHD organizes the
// atoms of a query into bags arranged in a tree; its width w is the
// maximum number of atoms covering a bag and its depth d the height of
// the tree. The tutorial's round/load trade-off (slide 95) is:
// any query with a width-w, depth-d GHD runs in r = O(d) rounds with
// load L = O((IN^w + OUT)/p).

// Bag is a node of a GHD: a set of variables covered by a set of atoms
// (the λ labelling).
type Bag struct {
	Vars  []string
	Atoms []int // indices into the query's atom list (the cover λ)
}

// GHD is a rooted generalized hypertree decomposition of a query.
type GHD struct {
	Query    Query
	Bags     []Bag
	Parent   []int   // Parent[i] = parent bag index, -1 for root
	Children [][]int // derived from Parent
	Root     int
}

// NewGHD assembles a GHD from bags and parent pointers, derives child
// lists, and validates the decomposition (panicking on an invalid one,
// since constructing an invalid GHD is always a programming error).
func NewGHD(q Query, bags []Bag, parent []int) *GHD {
	if len(bags) != len(parent) {
		panic("hypergraph: bags/parent length mismatch")
	}
	g := &GHD{Query: q, Bags: bags, Parent: parent, Root: -1}
	g.Children = make([][]int, len(bags))
	for i, p := range parent {
		if p < 0 {
			if g.Root >= 0 {
				panic("hypergraph: GHD has two roots")
			}
			g.Root = i
		} else {
			g.Children[p] = append(g.Children[p], i)
		}
	}
	if g.Root < 0 {
		panic("hypergraph: GHD has no root")
	}
	if err := g.Validate(); err != nil {
		panic("hypergraph: invalid GHD: " + err.Error())
	}
	return g
}

// Width returns max bag cover size.
func (g *GHD) Width() int {
	w := 0
	for _, b := range g.Bags {
		if len(b.Atoms) > w {
			w = len(b.Atoms)
		}
	}
	return w
}

// Depth returns the number of edges on the longest root-to-leaf path.
func (g *GHD) Depth() int {
	var depth func(i int) int
	depth = func(i int) int {
		d := 0
		for _, c := range g.Children[i] {
			if cd := depth(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	return depth(g.Root)
}

// Validate checks the three GHD conditions:
//  1. every atom's variables are contained in some bag whose λ includes
//     the atom;
//  2. each bag's variables are covered by the union of its λ atoms;
//  3. running intersection: for every variable, the bags containing it
//     form a connected subtree.
func (g *GHD) Validate() error {
	q := g.Query
	covered := make([]bool, len(q.Atoms))
	for _, b := range g.Bags {
		vs := map[string]bool{}
		for _, v := range b.Vars {
			vs[v] = true
		}
		// Condition 2.
		av := map[string]bool{}
		for _, ai := range b.Atoms {
			if ai < 0 || ai >= len(q.Atoms) {
				return fmt.Errorf("bag references atom %d out of range", ai)
			}
			for _, v := range q.Atoms[ai].Vars {
				av[v] = true
			}
		}
		for _, v := range b.Vars {
			if !av[v] {
				return fmt.Errorf("bag var %s not covered by its λ atoms", v)
			}
		}
		// Condition 1 (atom fully inside bag).
		for _, ai := range b.Atoms {
			all := true
			for _, v := range q.Atoms[ai].Vars {
				if !vs[v] {
					all = false
					break
				}
			}
			if all {
				covered[ai] = true
			}
		}
	}
	for i, ok := range covered {
		if !ok {
			return fmt.Errorf("atom %s not contained in any bag", q.Atoms[i].Name)
		}
	}
	// Condition 3.
	for _, v := range q.Vars() {
		var with []int
		for i, b := range g.Bags {
			for _, bv := range b.Vars {
				if bv == v {
					with = append(with, i)
					break
				}
			}
		}
		if len(with) <= 1 {
			continue
		}
		inSet := map[int]bool{}
		for _, i := range with {
			inSet[i] = true
		}
		// The induced subgraph on `with` must be connected under tree
		// edges. BFS from with[0].
		seen := map[int]bool{with[0]: true}
		queue := []int{with[0]}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			var adj []int
			if p := g.Parent[cur]; p >= 0 && inSet[p] {
				adj = append(adj, p)
			}
			for _, c := range g.Children[cur] {
				if inSet[c] {
					adj = append(adj, c)
				}
			}
			for _, nb := range adj {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		if len(seen) != len(with) {
			return fmt.Errorf("variable %s violates running intersection", v)
		}
	}
	return nil
}

// PathChainGHD returns the width-1, depth-(n-1) chain decomposition of
// the path-n query (slide 79, left).
func PathChainGHD(n int) *GHD {
	q := Path(n)
	bags := make([]Bag, n)
	parent := make([]int, n)
	for i := 0; i < n; i++ {
		bags[i] = Bag{Vars: q.Atoms[i].Vars, Atoms: []int{i}}
		parent[i] = i - 1
	}
	return NewGHD(q, bags, parent)
}

// PathFlatGHD returns the width-⌈n/2⌉, depth-1 decomposition of the
// path-n query: the root bag is covered by the odd atoms (which jointly
// contain every variable), and each even atom hangs off the root as a
// width-1 leaf (slide 95, middle).
func PathFlatGHD(n int) *GHD {
	q := Path(n)
	var rootAtoms []int
	rootVars := map[string]bool{}
	for i := 0; i < n; i += 2 {
		rootAtoms = append(rootAtoms, i)
		for _, v := range q.Atoms[i].Vars {
			rootVars[v] = true
		}
	}
	// If n is even the last atom R_n has an endpoint A_n not covered by
	// odd atoms; include it in the root cover.
	if n%2 == 0 {
		rootAtoms = append(rootAtoms, n-1)
		for _, v := range q.Atoms[n-1].Vars {
			rootVars[v] = true
		}
	}
	var rv []string
	for _, v := range q.Vars() {
		if rootVars[v] {
			rv = append(rv, v)
		}
	}
	bags := []Bag{{Vars: rv, Atoms: rootAtoms}}
	parent := []int{-1}
	for i := 1; i < n; i += 2 {
		if n%2 == 0 && i == n-1 {
			break
		}
		bags = append(bags, Bag{Vars: q.Atoms[i].Vars, Atoms: []int{i}})
		parent = append(parent, 0)
	}
	return NewGHD(q, bags, parent)
}

// PathBalancedGHD returns a width-≤3, depth-O(log n) decomposition of
// the path-n query (slide 95, right): the bag for the atom interval
// [lo,hi] is covered by {R_lo, R_mid, R_hi} and recurses on the two
// halves.
func PathBalancedGHD(n int) *GHD {
	q := Path(n)
	var bags []Bag
	var parent []int
	var build func(lo, hi, par int) int
	build = func(lo, hi, par int) int {
		idx := len(bags)
		bags = append(bags, Bag{})
		parent = append(parent, par)
		if hi-lo <= 2 {
			atoms := []int{}
			vars := map[string]bool{}
			for i := lo; i <= hi; i++ {
				atoms = append(atoms, i)
				for _, v := range q.Atoms[i].Vars {
					vars[v] = true
				}
			}
			bags[idx] = Bag{Vars: sortedVars(q, vars), Atoms: atoms}
			return idx
		}
		mid := (lo + hi) / 2
		atoms := []int{lo, mid, hi}
		vars := map[string]bool{}
		for _, ai := range atoms {
			for _, v := range q.Atoms[ai].Vars {
				vars[v] = true
			}
		}
		bags[idx] = Bag{Vars: sortedVars(q, vars), Atoms: atoms}
		if mid > lo {
			build(lo, mid, idx)
		}
		if hi > mid {
			build(mid, hi, idx)
		}
		return idx
	}
	build(0, n-1, -1)
	return NewGHD(q, bags, parent)
}

func sortedVars(q Query, set map[string]bool) []string {
	var out []string
	for _, v := range q.Vars() {
		if set[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}
