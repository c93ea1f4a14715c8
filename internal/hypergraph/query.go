// Package hypergraph represents conjunctive queries as hypergraphs —
// atoms are hyperedges over variables — and provides the structural
// machinery the tutorial's algorithms need: GYO acyclicity testing and
// join-tree extraction (for Yannakakis/GYM), generalized hypertree
// decompositions with width/depth trade-offs (slides 79, 95), and
// residual queries under heavy-hitter variable bindings (slide 47, the
// SkewHC algorithm).
package hypergraph

import (
	"fmt"
	"sort"
	"strings"
)

// Atom is one relational atom S(x1, ..., xk) of a conjunctive query.
// Repeated variables within an atom are not supported (the tutorial
// never uses them).
type Atom struct {
	Name string
	Vars []string
}

// HasVar reports whether the atom mentions v.
func (a Atom) HasVar(v string) bool {
	for _, x := range a.Vars {
		if x == v {
			return true
		}
	}
	return false
}

func (a Atom) String() string {
	return a.Name + "(" + strings.Join(a.Vars, ",") + ")"
}

// Query is a full conjunctive query (all variables are output
// variables, as everywhere in the tutorial).
type Query struct {
	Name  string
	Atoms []Atom
}

// NewQuery builds a query, validating that atom names are unique and no
// atom repeats a variable. It panics on invalid input; code handling
// untrusted query shapes (the parsed frontend, anything network-facing)
// should use TryNewQuery instead.
func NewQuery(name string, atoms ...Atom) Query {
	q, err := TryNewQuery(name, atoms...)
	if err != nil {
		panic(err.Error())
	}
	return q
}

// TryNewQuery is NewQuery with errors instead of panics: the
// construction entry point for untrusted input. It rejects duplicate
// atom names, atoms with no variables, and atoms repeating a variable.
func TryNewQuery(name string, atoms ...Atom) (Query, error) {
	seen := map[string]bool{}
	for _, a := range atoms {
		if seen[a.Name] {
			return Query{}, fmt.Errorf("hypergraph: duplicate atom name %s", a.Name)
		}
		seen[a.Name] = true
		vs := map[string]bool{}
		for _, v := range a.Vars {
			if vs[v] {
				return Query{}, fmt.Errorf("hypergraph: atom %s repeats variable %s", a.Name, v)
			}
			vs[v] = true
		}
		if len(a.Vars) == 0 {
			return Query{}, fmt.Errorf("hypergraph: atom %s has no variables", a.Name)
		}
	}
	return Query{Name: name, Atoms: atoms}, nil
}

// Vars returns every variable in order of first occurrence.
func (q Query) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Atom returns the atom with the given name, or panics.
func (q Query) Atom(name string) Atom {
	for _, a := range q.Atoms {
		if a.Name == name {
			return a
		}
	}
	panic("hypergraph: no atom " + name + " in " + q.Name)
}

// AtomIndex returns the position of the named atom, or -1.
func (q Query) AtomIndex(name string) int {
	for i, a := range q.Atoms {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// TwoWayJoinVar reports whether q is a two-way binary join
// R(x,y) ⋈ S(y,z) — two binary atoms sharing exactly one variable, the
// shape the join2 algorithms handle — and returns the shared variable.
func (q Query) TwoWayJoinVar() (string, bool) {
	if len(q.Atoms) != 2 || len(q.Atoms[0].Vars) != 2 || len(q.Atoms[1].Vars) != 2 {
		return "", false
	}
	shared := ""
	n := 0
	for _, v := range q.Atoms[0].Vars {
		if q.Atoms[1].HasVar(v) {
			shared = v
			n++
		}
	}
	if n != 1 {
		return "", false
	}
	return shared, true
}

func (q Query) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return q.Name + " = " + strings.Join(parts, " ⋈ ")
}

// Residual returns the residual query obtained by deleting the given
// (heavy) variables from every atom and dropping atoms left with no
// variables (slide 47). The returned query keeps original atom names so
// callers can map residual atoms back to input relations; droppedAtoms
// lists the names of atoms removed entirely.
func (q Query) Residual(heavy map[string]bool) (res Query, droppedAtoms []string) {
	res.Name = q.Name + "_res"
	for _, a := range q.Atoms {
		var keep []string
		for _, v := range a.Vars {
			if !heavy[v] {
				keep = append(keep, v)
			}
		}
		if len(keep) == 0 {
			droppedAtoms = append(droppedAtoms, a.Name)
			continue
		}
		res.Atoms = append(res.Atoms, Atom{Name: a.Name, Vars: keep})
	}
	return res, droppedAtoms
}

// VarSubsets enumerates all subsets of the query's variables, each as a
// set, in a deterministic order (by subset size, then lexicographically).
// Used by SkewHC to enumerate heavy/light patterns.
func (q Query) VarSubsets() []map[string]bool {
	vars := q.Vars()
	n := len(vars)
	if n > 20 {
		panic("hypergraph: too many variables to enumerate subsets")
	}
	subsets := make([]map[string]bool, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		s := map[string]bool{}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s[vars[i]] = true
			}
		}
		subsets = append(subsets, s)
	}
	sort.SliceStable(subsets, func(a, b int) bool {
		if len(subsets[a]) != len(subsets[b]) {
			return len(subsets[a]) < len(subsets[b])
		}
		return setKey(subsets[a], vars) < setKey(subsets[b], vars)
	})
	return subsets
}

func setKey(s map[string]bool, order []string) string {
	var b strings.Builder
	for _, v := range order {
		if s[v] {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// ---- Standard queries from the tutorial ----

// Triangle is Δ(x,y,z) = R(x,y) ⋈ S(y,z) ⋈ T(z,x) (slide 34).
func Triangle() Query {
	return NewQuery("triangle",
		Atom{Name: "R", Vars: []string{"x", "y"}},
		Atom{Name: "S", Vars: []string{"y", "z"}},
		Atom{Name: "T", Vars: []string{"z", "x"}},
	)
}

// TwoWayJoin is Join(x,y,z) = R(x,y) ⋈ S(y,z) (slide 22).
func TwoWayJoin() Query {
	return NewQuery("join2",
		Atom{Name: "R", Vars: []string{"x", "y"}},
		Atom{Name: "S", Vars: []string{"y", "z"}},
	)
}

// RST is R(x) ⋈ S(x,y) ⋈ T(y), the "easy under skew with semijoins"
// query of slides 53 and 58.
func RST() Query {
	return NewQuery("rst",
		Atom{Name: "R", Vars: []string{"x"}},
		Atom{Name: "S", Vars: []string{"x", "y"}},
		Atom{Name: "T", Vars: []string{"y"}},
	)
}

// CartesianProduct is Product(x,z) = R(x) ⋈ S(z) (slide 27).
func CartesianProduct() Query {
	return NewQuery("product",
		Atom{Name: "R", Vars: []string{"x"}},
		Atom{Name: "S", Vars: []string{"z"}},
	)
}

// Path returns the chain query R1(A0,A1) ⋈ ... ⋈ Rn(A[n-1],An)
// (slides 62, 79).
func Path(n int) Query {
	if n < 1 {
		panic("hypergraph: Path needs n ≥ 1")
	}
	atoms := make([]Atom, n)
	for i := 0; i < n; i++ {
		atoms[i] = Atom{
			Name: fmt.Sprintf("R%d", i+1),
			Vars: []string{fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", i+1)},
		}
	}
	return NewQuery(fmt.Sprintf("path%d", n), atoms...)
}

// Star returns the star query R1(A0,A1) ⋈ R2(A0,A2) ⋈ ... ⋈ Rn(A0,An)
// (slide 79).
func Star(n int) Query {
	if n < 1 {
		panic("hypergraph: Star needs n ≥ 1")
	}
	atoms := make([]Atom, n)
	for i := 0; i < n; i++ {
		atoms[i] = Atom{
			Name: fmt.Sprintf("R%d", i+1),
			Vars: []string{"A0", fmt.Sprintf("A%d", i+1)},
		}
	}
	return NewQuery(fmt.Sprintf("star%d", n), atoms...)
}

// SlideTree is the 5-atom acyclic query used in the Yannakakis walkthrough
// (slides 64–77): R1(A0,A1), R2(A0,A2), R3(A1,A3), R4(A2,A4), R5(A2,A5).
func SlideTree() Query {
	return NewQuery("slidetree",
		Atom{Name: "R1", Vars: []string{"A0", "A1"}},
		Atom{Name: "R2", Vars: []string{"A0", "A2"}},
		Atom{Name: "R3", Vars: []string{"A1", "A3"}},
		Atom{Name: "R4", Vars: []string{"A2", "A4"}},
		Atom{Name: "R5", Vars: []string{"A2", "A5"}},
	)
}

// Difficult is the open-problem query of slide 61: a path x1–x2–x3 with
// pendant edges hanging off its endpoints. The slide's figure is
// transcribed too lossily to pin every atom, but it states τ* = 2 and
// ψ* = 3, which this query realizes exactly: the base packing can use
// only the two pendant atoms (τ* = 2), while the residual query with
// {x1, x3} heavy packs S1(y1), S2(y3) and R1(x2)/R2(x2) for ψ* = 3.
func Difficult() Query {
	return NewQuery("difficult",
		Atom{Name: "R1", Vars: []string{"x1", "x2"}},
		Atom{Name: "R2", Vars: []string{"x2", "x3"}},
		Atom{Name: "S1", Vars: []string{"x1", "y1"}},
		Atom{Name: "S2", Vars: []string{"x3", "y3"}},
	)
}

// RandomAcyclic generates a random α-acyclic query with nAtoms atoms of
// arity 2..maxArity: atoms form a random tree, each child sharing one
// connector variable with its parent and introducing fresh variables
// for the rest. Useful for property sweeps over the acyclic algorithms.
func RandomAcyclic(nAtoms, maxArity int, seed int64) Query {
	if nAtoms < 1 || maxArity < 2 {
		panic("hypergraph: RandomAcyclic needs nAtoms ≥ 1, maxArity ≥ 2")
	}
	rng := newSplitMix(uint64(seed))
	fresh := 0
	newVar := func() string {
		fresh++
		return fmt.Sprintf("v%d", fresh)
	}
	atoms := make([]Atom, nAtoms)
	arity := 2 + int(rng()%(uint64(maxArity)-1))
	vars := make([]string, arity)
	for i := range vars {
		vars[i] = newVar()
	}
	atoms[0] = Atom{Name: "R1", Vars: vars}
	for i := 1; i < nAtoms; i++ {
		parent := atoms[rng()%uint64(i)]
		connector := parent.Vars[rng()%uint64(len(parent.Vars))]
		arity := 2 + int(rng()%(uint64(maxArity)-1))
		vars := make([]string, arity)
		vars[0] = connector
		for j := 1; j < arity; j++ {
			vars[j] = newVar()
		}
		atoms[i] = Atom{Name: fmt.Sprintf("R%d", i+1), Vars: vars}
	}
	return NewQuery(fmt.Sprintf("rand%d", seed), atoms...)
}

// newSplitMix returns a tiny deterministic generator (avoiding a
// math/rand dependency in this package).
func newSplitMix(seed uint64) func() uint64 {
	state := seed*0x9e3779b97f4a7c15 + 0x1234567
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// Cycle returns the length-n cycle query R1(A1,A2), ..., Rn(An,A1).
func Cycle(n int) Query {
	if n < 3 {
		panic("hypergraph: Cycle needs n ≥ 3")
	}
	atoms := make([]Atom, n)
	for i := 0; i < n; i++ {
		atoms[i] = Atom{
			Name: fmt.Sprintf("R%d", i+1),
			Vars: []string{fmt.Sprintf("A%d", i+1), fmt.Sprintf("A%d", (i+1)%n+1)},
		}
	}
	return NewQuery(fmt.Sprintf("cycle%d", n), atoms...)
}
