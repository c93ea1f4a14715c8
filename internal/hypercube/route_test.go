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
	"mpcquery/internal/trace"
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
		d := pl.varIndex(v)
		fixed[d] = int(relation.Hash64(row[ai], pl.Seeds[d]) % uint64(pl.Shares[d]))
	}
	st := pl.strides()
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

// routeCells lists the cells rt sends row to, in order.
func routeCells(rt Route, row []relation.Value) []int {
	var cells []int
	b := rt.Base(row)
	for _, o := range rt.Offsets {
		cells = append(cells, b+o)
	}
	return cells
}

var routeVars = []string{"a", "b", "c", "d"}

// checkRoute asserts that the compiled route of atom under pl emits
// exactly the reference walk's cell sequence for row.
func checkRoute(t *testing.T, pl *Plan, atom hypergraph.Atom, row []relation.Value) {
	t.Helper()
	got, want := routeCells(pl.Route(atom), row), walkCells(pl, atom, row)
	if !slices.Equal(got, want) {
		t.Fatalf("shares %v vars %v atom %v row %v: route %v, walk %v", pl.Shares, pl.Vars, atom.Vars, row, got, want)
	}
}

// TestRouteMatchesWalk draws random plans — 1–4 atoms over 1–4
// variables, shares 1–4 (share-1 dimensions included), nullary atoms,
// repeated variables, and a last atom that fixes every dimension — and
// checks that every atom's compiled route emits the reference walk's
// cell sequence for random rows.
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
			row := make([]relation.Value, len(a.Vars))
			for r := 0; r < 10; r++ {
				for j := range row {
					row[j] = relation.Value(rng.Int63n(1<<20) - 1<<19)
				}
				checkRoute(t, pl, a, row)
			}
		}
	}
}

// FuzzRoute fuzzes the shares (one per byte, 1–4, up to four
// variables), the routed atom's variables (one per byte, repeats and the
// nullary atom allowed) and the row's values, and checks the compiled
// route against the reference walk.
func FuzzRoute(f *testing.F) {
	f.Add([]byte{1, 1, 1}, []byte{0, 1}, int64(5), int64(9), int64(1), uint64(7))
	f.Add([]byte{0}, []byte{}, int64(0), int64(0), int64(0), uint64(0))
	f.Add([]byte{3, 0, 2, 3}, []byte{3, 3, 1}, int64(-1), int64(1<<40), int64(7), uint64(42))
	f.Fuzz(func(t *testing.T, shareBytes, varBytes []byte, x, y, z int64, seed uint64) {
		if len(shareBytes) == 0 {
			shareBytes = []byte{0}
		}
		shares := make([]int, min(len(shareBytes), len(routeVars)))
		for i := range shares {
			shares[i] = 1 + int(shareBytes[i]%4)
		}
		vars := routeVars[:len(shares)]
		atom := hypergraph.Atom{Name: "A"}
		for _, b := range varBytes[:min(len(varBytes), 4)] {
			atom.Vars = append(atom.Vars, vars[int(b)%len(vars)])
		}
		// The full atom lists every variable, so the plan has them all.
		q := hypergraph.Query{Name: "fuzz", Atoms: []hypergraph.Atom{atom, {Name: "F", Vars: vars}}}
		pl := PlanWithShares(q, shares, seed)
		vals := []relation.Value{x, y, z, x ^ y}
		checkRoute(t, pl, atom, vals[:len(atom.Vars)])
		checkRoute(t, pl, q.Atoms[1], vals[:len(vars)])
	})
}

// loopShuffle is shuffle's per-row reference: the same streams, opened
// in the same order, fed one Send per (row, reference-walk cell).
func loopShuffle(srv *mpc.Server, out *mpc.Out, pl *Plan, atoms []hypergraph.Atom, outName string, span func(n int) (lo, hi int)) {
	for _, a := range atoms {
		frag := srv.Rel(a.Name)
		if frag == nil {
			continue
		}
		st := out.Open(outName+":"+a.Name, a.Vars...)
		lo, hi := span(frag.Len())
		for i := lo; i < hi; i++ {
			for _, cell := range walkCells(pl, a, frag.Row(i)) {
				st.SendRow(cell, frag.Row(i))
			}
		}
	}
}

// TestShuffleMatchesPerRowLoop is the contract of the presized grid
// shuffle: fragments (bit for bit, row order included), RoundStats and
// trace events are those of one Send per row and reference-walk cell,
// for whole fragments and for the adaptive probe's prefix and remainder
// spans, with a missing fragment and with heavy-hitter input, on the
// local transport and over loopback TCP.
func TestShuffleMatchesPerRowLoop(t *testing.T) {
	spans := map[string]func(n int) (int, int){
		"all":    allRows,
		"prefix": func(n int) (int, int) { return 0, probeCount(n, 0.3) },
		"suffix": func(n int) (int, int) { return probeCount(n, 0.3), n },
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
							run := func(bulk bool) (*mpc.Cluster, *trace.Recorder) {
								c := mpc.NewCluster(p, 5)
								rec := trace.NewRecorder()
								c.SetTracer(rec)
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
								routes := pl.routes(q.Atoms)
								c.Round("grid", func(srv *mpc.Server, out *mpc.Out) {
									if bulk {
										shuffle(srv, out, q.Atoms, routes, "g", span)
									} else {
										loopShuffle(srv, out, pl, q.Atoms, "g", span)
									}
								})
								return c, rec
							}
							loop, loopRec := run(false)
							bulk, bulkRec := run(true)
							testkit.AssertSameFragments(t, loop, bulk)
							testkit.AssertSameLRC(t, loop, bulk)
							testkit.AssertSameTrace(t, loopRec, bulkRec)
						})
					}
				}
			}
		}
	}
}

// TestShuffleAllocsIndependentOfFragmentLength is the allocation wall of
// the grid shuffle: routing a fragment of 10 000 rows allocates exactly
// as often as routing one of 100. A per-row allocation anywhere on the
// route breaks it.
func TestShuffleAllocsIndependentOfFragmentLength(t *testing.T) {
	q := hypergraph.Triangle()
	pl := PlanWithShares(q, []int{2, 2, 2}, 7)
	routes := pl.routes(q.Atoms)
	allocs := func(n int) float64 {
		c := mpc.NewCluster(8, 1)
		frag := relation.New("R", "x", "y")
		for i := 0; i < n; i++ {
			frag.Append(relation.Value(i), relation.Value(i*7+1))
		}
		c.Server(0).Put(frag)
		return testing.AllocsPerRun(20, func() {
			c.Round("grid", func(srv *mpc.Server, out *mpc.Out) {
				shuffle(srv, out, q.Atoms, routes, "g", allRows)
			})
			c.DeleteAll("g:R")
		})
	}
	small, large := allocs(100), allocs(10_000)
	if small != large {
		t.Fatalf("grid shuffle allocations grow with the fragment: %.1f per round at 100 rows, %.1f at 10 000", small, large)
	}
}
