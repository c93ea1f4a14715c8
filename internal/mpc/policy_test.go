package mpc_test

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/mpcnet"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// policyCase is one policy kind on a cluster of p servers, with the
// per-row loop it must equal: one Send per row and destination, on
// streams opened in the order the loop opens them.
type policyCase struct {
	name   string
	policy mpc.Policy
	loop   func(out *mpc.Out, to string, frag *relation.Relation)
}

// gridShares is a cubic grid of p servers over three dimensions.
func gridShares(p int) []int {
	s := 1
	for (s+1)*(s+1)*(s+1) <= p {
		s++
	}
	return []int{s, s, s}
}

// gridCols fixes dimensions 0 and 2 by columns 0 and 2 of an arity-3
// fragment and leaves dimension 1 free; an arity-0 fragment fixes none.
func gridCols(arity int) []int {
	if arity == 0 {
		return []int{-1, -1, -1}
	}
	return []int{0, -1, 2}
}

var gridSeeds = []uint64{11, 12, 13}

// policyCases lists every policy kind for fragments of the given arity
// on p servers.
func policyCases(p, arity int) []policyCase {
	vars := []string{"z", "x"}[:min(arity, 2)]
	shares, cols := gridShares(p), gridCols(arity)
	s := shares[0]
	grid := func(shares []int) func(*mpc.Stream, []relation.Value) {
		return func(st *mpc.Stream, row []relation.Value) {
			for _, c := range mpc.WalkCells(shares, gridSeeds, cols, row) {
				st.SendRow(c, row)
			}
		}
	}
	// Patterns: value 0 is heavy in column 0 and values 1 and 2 in
	// column 2; a heavy column gets share 1 in its pattern's grid.
	var heavy [][]relation.Value
	want, pshares := []uint64{0}, [][]int{shares}
	if arity > 0 {
		heavy = [][]relation.Value{{0}, nil, {1, 2}}
		want = []uint64{0, 1, 4, 5}
		pshares = [][]int{{s, s, s}, {1, s, s}, {s, s, 1}, {1, s, 1}}
	}
	pgrids := make([]mpc.Policy, len(pshares))
	for i, sh := range pshares {
		pgrids[i] = mpc.Grid(sh, gridSeeds, cols, nil)
	}
	// Owner map: about two cells per server, in contiguous runs; a row
	// goes once to each server that hosts one of its cells.
	oshares := []int{s, 2, (p + s - 1) / s}
	cells := oshares[0] * oshares[1] * oshares[2]
	owner := make([]int, cells)
	for c := range owner {
		owner[c] = c * p / cells
	}
	return []policyCase{
		{"hash", mpc.Hash(5, vars...), func(out *mpc.Out, to string, frag *relation.Relation) {
			st := out.Open(to, frag.Attrs()...)
			cols, seed := frag.MustCols(vars), mpc.HashSeed(5, vars...)
			for i := 0; i < frag.Len(); i++ {
				st.SendRow(mpc.Owner(frag.Row(i), cols, seed, p), frag.Row(i))
			}
		}},
		{"broadcast", mpc.Broadcast(), func(out *mpc.Out, to string, frag *relation.Relation) {
			st := out.Open(to, frag.Attrs()...)
			for i := 0; i < frag.Len(); i++ {
				st.Broadcast(frag.Row(i)...)
			}
		}},
		{"grid", mpc.Grid(shares, gridSeeds, cols, nil), func(out *mpc.Out, to string, frag *relation.Relation) {
			st := out.Open(to, frag.Attrs()...)
			for i := 0; i < frag.Len(); i++ {
				grid(shares)(st, frag.Row(i))
			}
		}},
		{"patterns", mpc.Patterns(heavy, want, pgrids...), func(out *mpc.Out, to string, frag *relation.Relation) {
			sts := make([]*mpc.Stream, len(want))
			for i := range sts {
				sts[i] = out.Open(fmt.Sprintf("%s@%d", to, i), frag.Attrs()...)
			}
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				var bits uint64
				for j, v := range row {
					if slices.Contains(heavy[j], v) {
						bits |= 1 << j
					}
				}
				for pi, w := range want {
					if w == bits {
						grid(pshares[pi])(sts[pi], row)
					}
				}
			}
		}},
		{"owner", mpc.Grid(oshares, gridSeeds, cols, owner), func(out *mpc.Out, to string, frag *relation.Relation) {
			st := out.Open(to, frag.Attrs()...)
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				var sent []int
				for _, c := range mpc.WalkCells(oshares, gridSeeds, cols, row) {
					if !slices.Contains(sent, owner[c]) {
						sent = append(sent, owner[c])
						st.SendRow(owner[c], row)
					}
				}
			}
		}},
	}
}

// policyInput is n rows of arity 3 (x = i mod 5, y = i, z = i mod 7,
// so column 0 and 2 hit the patterns' heavy values), or n nullary rows.
func policyInput(name string, arity, n int) *relation.Relation {
	rel := relation.New(name, []string{"x", "y", "z"}[:arity]...)
	for i := 0; i < n; i++ {
		if arity == 0 {
			rel.Append()
			continue
		}
		rel.Append(relation.Value(i%5), relation.Value(i), relation.Value(i%7))
	}
	return rel
}

// TestShuffleMatchesPerRowLoop is the contract of Cluster.Shuffle: for
// every policy kind, fragments (bit for bit, row order included),
// (L, r, C) and trace events are those of one Send per row and
// destination — the grid's destinations from the reference walk — with
// a hash send of a second fragment after it in the same round, a
// missing fragment on server 0, arity-3 and arity-0 input, on the local
// transport and over loopback TCP.
func TestShuffleMatchesPerRowLoop(t *testing.T) {
	for _, arity := range []int{3, 0} {
		for _, p := range []int{1, 8, 27} {
			second := policyCases(p, arity)[0] // hash
			for _, pc := range policyCases(p, arity) {
				for _, backend := range []string{"local", "tcp"} {
					t.Run(fmt.Sprintf("%s/arity%d/p%d/%s", pc.name, arity, p, backend), func(t *testing.T) {
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
							c.ScatterRoundRobin(policyInput("R", arity, 300))
							c.ScatterRoundRobin(policyInput("S", arity, 40))
							c.Server(0).Delete("R")
							if bulk {
								c.Shuffle("route", mpc.Send{From: "R", To: "g", Policy: pc.policy},
									mpc.Send{From: "S", To: "h", Policy: second.policy})
								return c
							}
							c.Round("route", func(srv *mpc.Server, out *mpc.Out) {
								if frag := srv.Rel("R"); frag != nil {
									pc.loop(out, "g", frag)
								}
								second.loop(out, "h", srv.Rel("S"))
							})
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

// TestShuffleAllocsIndependentOfFragmentLength is the allocation wall
// of Cluster.Shuffle: for every policy kind, routing a fragment of
// 10 000 rows allocates exactly as often as routing one of 100. A
// per-row allocation anywhere on the route breaks it. The collector is
// off while it counts: a cycle that a large round triggers allocates in
// the runtime, not on the route.
func TestShuffleAllocsIndependentOfFragmentLength(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, pc := range policyCases(8, 3) {
		allocs := func(n int) float64 {
			c := mpc.NewCluster(8, 1)
			c.Server(0).Put(policyInput("R", 3, n))
			names := map[string]bool{}
			return testing.AllocsPerRun(20, func() {
				c.Shuffle("route", mpc.Send{From: "R", To: "g", Policy: pc.policy})
				for d := 0; d < c.P(); d++ {
					for _, name := range c.Server(d).RelNames() {
						names[name] = true
					}
				}
				for name := range names {
					if name != "R" {
						c.DeleteAll(name)
					}
				}
			})
		}
		if small, large := allocs(100), allocs(10_000); small != large {
			t.Errorf("%s: shuffle allocations grow with the fragment: %.1f per round at 100 rows, %.1f at 10 000", pc.name, small, large)
		}
	}
}

// TestHashPolicyNamesItsPlacement pins that a hash policy is named by
// variables: fragments hashed on y under one query seed meet on one
// server whatever y's column, exactly where ScatterByHash places them.
func TestHashPolicyNamesItsPlacement(t *testing.T) {
	r, s := relation.New("R", "x", "y"), relation.New("S", "y", "z")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		r.Append(relation.Value(i), relation.Value(rng.Intn(50)))
		s.Append(relation.Value(rng.Intn(50)), relation.Value(i))
	}
	c := mpc.NewCluster(7, 1)
	c.ScatterRoundRobin(r)
	c.ScatterByHash(s, []string{"y"}, mpc.HashSeed(9, "y"))
	c.Shuffle("y", mpc.Send{From: "R", To: "Ry", Policy: mpc.Hash(9, "y")},
		mpc.Send{From: "S", To: "Sy", Policy: mpc.Hash(9, "y")})
	home := map[relation.Value]int{}
	for i := 0; i < c.P(); i++ {
		for _, name := range []string{"Ry", "Sy", "S"} {
			frag := c.Server(i).RelOrEmpty(name, "y")
			col := frag.MustCol("y")
			for j := 0; j < frag.Len(); j++ {
				y := frag.Row(j)[col]
				if h, ok := home[y]; ok && h != i {
					t.Fatalf("y = %d on servers %d and %d (%s)", y, h, i, name)
				}
				home[y] = i
			}
		}
	}
	if got := c.TotalLen("Ry") + c.TotalLen("Sy"); got != 800 {
		t.Fatalf("shuffled %d tuples, want 800", got)
	}
}
