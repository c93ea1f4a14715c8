package hypercube

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/mpcnet"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// walkCells is the reference the compiled Route is checked against: the
// recursive walk routing used before routes were compiled. Dimensions of
// the atom's variables are fixed by hashing the row's values (a repeated
// variable by its last column), the others range over their full shares,
// and cells are listed with dimension 0 outermost.
func walkCells(pl *Plan, atom hypergraph.Atom, row []relation.Value) []int {
	k := len(pl.Vars)
	fixed := make([]int, k)
	for i := range fixed {
		fixed[i] = -1
	}
	for ai, v := range atom.Vars {
		d := slices.Index(pl.Vars, v)
		fixed[d] = int(relation.Hash64(row[ai], pl.Seeds[d]) % uint64(pl.Shares[d]))
	}
	st := make([]int, k)
	acc := 1
	for d := k - 1; d >= 0; d-- {
		st[d] = acc
		acc *= pl.Shares[d]
	}
	var cells []int
	var walk func(dim, acc int)
	walk = func(dim, acc int) {
		if dim == k {
			cells = append(cells, acc)
			return
		}
		if fixed[dim] >= 0 {
			walk(dim+1, acc+fixed[dim]*st[dim])
			return
		}
		for c := 0; c < pl.Shares[dim]; c++ {
			walk(dim+1, acc+c*st[dim])
		}
	}
	walk(0, 0)
	return cells
}

// routeCells lists the cells pol sends each of rows to, in order: it
// sends every row on a stream of its own, from server 0 of a cluster
// with one server per cell of pl's grid, and reads where it landed.
func routeCells(pl *Plan, pol mpc.Policy, rows ...[]relation.Value) [][]int {
	c := mpc.NewCluster(pl.GridSize(), 1)
	c.Round("route", func(srv *mpc.Server, out *mpc.Out) {
		if srv.ID() != 0 {
			return
		}
		for i, row := range rows {
			attrs := make([]string, len(row))
			for j := range attrs {
				attrs[j] = fmt.Sprint("c", j)
			}
			pol.SendRow(out.Open(fmt.Sprint("r", i), attrs...), row)
		}
	})
	cells := make([][]int, len(rows))
	for i := range rows {
		for cell := 0; cell < c.P(); cell++ {
			if frag := c.Server(cell).Rel(fmt.Sprint("r", i)); frag != nil {
				for range frag.Len() {
					cells[i] = append(cells[i], cell)
				}
			}
		}
	}
	return cells
}

var routeVars = []string{"a", "b", "c", "d"}

// checkRoute asserts that atom's route under pl sends each of rows to
// exactly the reference walk's cells.
func checkRoute(t *testing.T, pl *Plan, atom hypergraph.Atom, rows ...[]relation.Value) {
	t.Helper()
	for i, got := range routeCells(pl, pl.Route(atom), rows...) {
		if want := walkCells(pl, atom, rows[i]); !slices.Equal(got, want) {
			t.Fatalf("shares %v vars %v atom %v row %v: route %v, walk %v", pl.Shares, pl.Vars, atom.Vars, rows[i], got, want)
		}
	}
}

// TestRouteMatchesWalk draws random plans — 1–4 atoms over 1–4
// variables, shares 1–4 (share-1 dimensions included), nullary atoms,
// repeated variables, and a last atom that fixes every dimension — and
// checks that every atom's route sends random rows to exactly the
// reference walk's cells. mpc.FuzzRoute checks the compiled grid
// itself; this checks how a plan compiles an atom onto it.
func TestRouteMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		nv := 1 + rng.Intn(len(routeVars))
		atoms := make([]hypergraph.Atom, 1+rng.Intn(4))
		for i := range atoms {
			var vars []string
			if i == len(atoms)-1 {
				for _, j := range rng.Perm(nv) {
					vars = append(vars, routeVars[j])
				}
			} else {
				for n := rng.Intn(nv + 1); len(vars) < n; {
					vars = append(vars, routeVars[rng.Intn(nv)])
				}
			}
			atoms[i] = hypergraph.Atom{Name: fmt.Sprintf("A%d", i), Vars: vars}
		}
		q := hypergraph.Query{Name: "random", Atoms: atoms}
		shares := make([]int, nv)
		for i := range shares {
			shares[i] = 1 + rng.Intn(4)
		}
		pl := PlanWithShares(q, shares, rng.Uint64())
		for _, a := range atoms {
			rows := make([][]relation.Value, 10)
			for r := range rows {
				rows[r] = make([]relation.Value, len(a.Vars))
				for j := range rows[r] {
					rows[r][j] = relation.Value(rng.Int63n(1<<20) - 1<<19)
				}
			}
			checkRoute(t, pl, a, rows...)
		}
	}
}

// loopShuffle is shuffle's per-row reference: the same streams, opened
// in the same order with the fragments' schemas, fed one Send per (row,
// reference-walk cell).
func loopShuffle(srv *mpc.Server, out *mpc.Out, pl *Plan, atoms []hypergraph.Atom, from, outName string) {
	for _, a := range atoms {
		frag := srv.Rel(from + a.Name)
		if frag == nil {
			continue
		}
		st := out.Open(outName+":"+a.Name, frag.Attrs()...)
		for i := 0; i < frag.Len(); i++ {
			for _, cell := range walkCells(pl, a, frag.Row(i)) {
				st.SendRow(cell, frag.Row(i))
			}
		}
	}
}

// TestShuffleMatchesPerRowLoop is the contract of a plan's grid shuffle:
// fragments (bit for bit, row order included), RoundStats and trace
// events of shuffle under the plan's Route are those of one Send per row
// and reference-walk cell, for whole fragments and for a prefix and
// the remainder of each, shuffled from a copy under another name (shuffle's
// from), with a missing fragment and with heavy-hitter input, on the
// local transport and over loopback TCP.
// mpc.TestShuffleMatchesPerRowLoop checks each policy kind on its own;
// this checks the plans HyperCube and the adaptive driver route by.
func TestShuffleMatchesPerRowLoop(t *testing.T) {
	cut := func(n int) int { return min(n, max(1, (3*n+9)/10)) } // ⌈0.3n⌉, at least 1
	spans := map[string]func(n int) (int, int){
		"all":    func(n int) (int, int) { return 0, n },
		"prefix": func(n int) (int, int) { return 0, cut(n) },
		"suffix": func(n int) (int, int) { return cut(n), n },
	}
	for _, q := range []hypergraph.Query{hypergraph.Triangle(), hypergraph.Path(3), hypergraph.CartesianProduct()} {
		for _, skew := range []testkit.Skew{testkit.SkewUniform, testkit.SkewHeavy} {
			rels := testkit.GenInstance(q, skew, testkit.GenConfig{Tuples: 150}, 3)
			for _, p := range []int{1, 8, 27} {
				pl, err := NewPlan(q, Sizes(q, rels), p, 5)
				if err != nil {
					t.Fatal(err)
				}
				for spanName, span := range spans {
					for _, backend := range []string{"local", "tcp"} {
						t.Run(fmt.Sprintf("%s/%s/p%d/%s/%s", q.Name, skew, p, spanName, backend), func(t *testing.T) {
							run := func(bulk bool) *mpc.Cluster {
								c := mpc.NewCluster(p, 5)
								if backend == "tcp" {
									tr, err := mpcnet.NewLoopback(p, mpcnet.Options{})
									if err != nil {
										t.Fatal(err)
									}
									t.Cleanup(func() { tr.Close() })
									c.SetTransport(tr)
								}
								bound := cost.BindAtoms(q, rels)
								for _, a := range q.Atoms {
									c.ScatterRoundRobin(bound[a.Name])
								}
								c.Server(0).Delete(q.Atoms[0].Name)
								from := "s:"
								c.LocalStep(func(srv *mpc.Server) {
									for _, a := range q.Atoms {
										if frag := srv.Rel(a.Name); frag != nil {
											lo, hi := span(frag.Len())
											srv.Put(rows(frag, from+a.Name, lo, hi))
										}
									}
								})
								if bulk {
									shuffle(c, "grid", q.Atoms, from, "g", pl.Route)
								} else {
									c.Round("grid", func(srv *mpc.Server, out *mpc.Out) {
										loopShuffle(srv, out, pl, q.Atoms, from, "g")
									})
								}
								return c
							}
							loop := run(false)
							bulk := run(true)
							testkit.AssertSameFragments(t, loop, bulk)
							testkit.AssertSameLRC(t, loop, bulk)
							testkit.AssertSameTrace(t, loop, bulk)
						})
					}
				}
			}
		}
	}
}

// rows copies rows [lo, hi) of frag into a relation named name.
func rows(frag *relation.Relation, name string, lo, hi int) *relation.Relation {
	r := relation.New(name, frag.Attrs()...)
	k := frag.Arity()
	r.AppendFlat(frag.Flat()[lo*k:hi*k], hi-lo)
	return r
}
