package hypercube

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/trace"
)

// halfFast is the profile whose even servers run ratio times as fast
// as its odd ones.
func halfFast(p int, ratio float64) []float64 {
	caps := make([]float64, p)
	for i := range caps {
		caps[i] = 1
		if i%2 == 0 {
			caps[i] = ratio
		}
	}
	return caps
}

// holds reports whether cell c of the grid of the given shares, the
// last dimension varying fastest, lies in b.
func (b box) holds(shares []int, c int) bool {
	for d := len(shares) - 1; d >= 0; d-- {
		x := c % shares[d]
		c /= shares[d]
		if x < b.lo[d] || x >= b.hi[d] {
			return false
		}
	}
	return true
}

// cellBoxes is the identity layout of pl's grid over p servers: server
// c's box is cell c, and a server past the last cell gets an empty box.
func cellBoxes(pl *Plan, p int) []box {
	k := len(pl.Shares)
	bs := make([]box, p)
	for c := range bs {
		bs[c] = box{lo: make([]int, k), hi: make([]int, k)}
		if c >= pl.GridSize() {
			continue
		}
		for d, rest := k-1, c; d >= 0; d-- {
			bs[c].lo[d] = rest % pl.Shares[d]
			bs[c].hi[d] = bs[c].lo[d] + 1
			rest /= pl.Shares[d]
		}
	}
	return bs
}

// layoutOf is the box layout behind plan pl on servers of the given
// capacities: the identity layout when the plan kept plain HyperCube,
// and boxes otherwise, checked against the plan's owner table.
func layoutOf(t *testing.T, pl *Plan, sizes map[string]int64, caps []float64) []box {
	t.Helper()
	if pl.Owner == nil {
		return cellBoxes(pl, len(caps))
	}
	bs := boxes(pl, sizes, caps)
	if got := owners(pl, bs); !slices.Equal(got, pl.Owner) {
		t.Fatalf("shares %v: owner table %v is not the layout's %v", pl.Shares, pl.Owner, got)
	}
	return bs
}

// meets counts the servers whose box meets the slab of row, a tuple of
// atom a: every dimension of a's variables holds the row's coordinate.
func meets(pl *Plan, a hypergraph.Atom, row []relation.Value, bs []box) int64 {
	var n int64
	for _, b := range bs {
		in := b.volume() > 0
		for ai, v := range a.Vars {
			d := slices.Index(pl.Vars, v)
			x := int(relation.Hash64(row[ai], pl.Seeds[d]) % uint64(pl.Shares[d]))
			in = in && b.lo[d] <= x && x < b.hi[d]
		}
		if in {
			n++
		}
	}
	return n
}

// TestBoxesNeverLoseToUniform runs the capacity-aware plan against
// plain HyperCube on half-fast profiles (2:1, 4:1, 8:1) at p ∈ {8, 16,
// 27, 64}, for the triangle and path4 on uniform and Zipf inputs. On
// every run the normalized makespan is at most plain HyperCube's, the
// answer is plain HyperCube's, and C is the brute-force count of distinct
// (tuple, server) pairs whose box meets the tuple's slab: a tuple
// reaches each owner once. It logs the rows where the plan kept plain
// HyperCube.
func TestBoxesNeverLoseToUniform(t *testing.T) {
	for _, q := range []hypergraph.Query{hypergraph.Triangle(), hypergraph.Path(4)} {
		for _, skew := range []testkit.Skew{testkit.SkewNone, testkit.SkewZipf} {
			rels := testkit.GenInstance(q, skew, testkit.GenConfig{Tuples: 2000}, 7)
			sizes := Sizes(q, rels)
			for _, ratio := range []float64{2, 4, 8} {
				for _, p := range []int{8, 16, 27, 64} {
					name := fmt.Sprintf("%s/%s/%v:1/p%d", q.Name, skew, ratio, p)
					caps := halfFast(p, ratio)
					cu := mpc.NewCluster(p, 1)
					if _, err := Run(cu, q, rels, "out", 9, LocalGeneric); err != nil {
						t.Fatal(err)
					}
					ch := mpc.NewCluster(p, 1)
					ch.SetCapacities(caps)
					res, err := RunHet(ch, q, rels, "out", 9, LocalGeneric)
					if err != nil {
						t.Fatal(err)
					}
					uniform, het := cu.Metrics().NormalizedMakespan(caps), ch.Metrics().NormalizedMakespan(caps)
					if het > uniform {
						t.Errorf("%s: shares %v normalized makespan %.1f above plain HyperCube's %.1f", name, res.Plan.Shares, het, uniform)
					}
					if res.Plan.Owner == nil {
						t.Logf("%s: kept plain HyperCube (makespan %.1f)", name, het)
					}
					got, want := testkit.GatherResult(ch, "out", q.Vars()), testkit.GatherResult(cu, "out", q.Vars())
					if !testkit.BagEqual(got, want) {
						t.Fatalf("%s: answer differs from plain HyperCube's: %s", name, testkit.DiffSample(got, want))
					}
					bs := layoutOf(t, res.Plan, sizes, caps)
					var pairs int64
					for _, a := range q.Atoms {
						for i := 0; i < rels[a.Name].Len(); i++ {
							pairs += meets(res.Plan, a, rels[a.Name].Row(i), bs)
						}
					}
					if c := ch.Metrics().TotalComm(); c != pairs {
						t.Errorf("%s: C = %d, distinct (tuple, server) pairs %d", name, c, pairs)
					}
				}
			}
		}
	}
}

// TestIdentityLayoutIsRun is the differential of the one grid loop:
// plain HyperCube's plan hosted on its identity box layout — server c
// owns cell c — reproduces Run's fragments, RoundStats and trace byte
// for byte, on grids that use every server and grids that leave some
// idle.
func TestIdentityLayoutIsRun(t *testing.T) {
	for _, q := range []hypergraph.Query{hypergraph.Triangle(), hypergraph.Path(3), hypergraph.CartesianProduct()} {
		for _, skew := range []testkit.Skew{testkit.SkewUniform, testkit.SkewHeavy} {
			rels := testkit.GenInstance(q, skew, testkit.GenConfig{Tuples: 300}, 3)
			for _, p := range []int{1, 8, 27} {
				t.Run(fmt.Sprintf("%s/%s/p%d", q.Name, skew, p), func(t *testing.T) {
					run := func(identity bool) (*mpc.Cluster, *trace.Recorder) {
						c := mpc.NewCluster(p, 5)
						rec := trace.NewRecorder()
						c.SetTracer(rec)
						if !identity {
							if _, err := Run(c, q, rels, "out", 11, LocalGeneric); err != nil {
								t.Fatal(err)
							}
							return c, rec
						}
						pl, err := NewPlan(q, Sizes(q, rels), p, 11)
						if err != nil {
							t.Fatal(err)
						}
						pl.Owner = owners(pl, cellBoxes(pl, p))
						scatter(c, q, rels)
						RunWithPlan(c, pl, "out", LocalGeneric)
						return c, rec
					}
					plain, plainRec := run(false)
					boxed, boxedRec := run(true)
					testkit.AssertSameFragments(t, plain, boxed)
					testkit.AssertSameLRC(t, plain, boxed)
					if a, b := trace.MarshalJSONL(plainRec.Events()), trace.MarshalJSONL(boxedRec.Events()); !bytes.Equal(a, b) {
						t.Fatalf("traces differ:\n%s\nidentity layout:\n%s", a, b)
					}
				})
			}
		}
	}
}

// fuzzQueries are the queries FuzzBoxes lays grids out for.
var fuzzQueries = []hypergraph.Query{hypergraph.Triangle(), hypergraph.Path(3), hypergraph.Star(3), hypergraph.Path(4)}

// FuzzBoxes fuzzes a box layout — the query, its shares (1–5 per
// variable), the atoms' sizes and a positive capacity profile of 1–12
// servers — and checks that the boxes are disjoint and cover the grid,
// that no server is left empty when the grid has at least p cells, that
// otherwise exactly the fastest servers hold one cell each or more, and
// that the owner table hosts each cell on the server whose box holds it.
func FuzzBoxes(f *testing.F) {
	f.Add(uint8(0), []byte{2, 2, 2}, []byte{4, 1, 1, 1, 1, 1, 1, 1}, uint16(1200))
	f.Add(uint8(3), []byte{1, 4, 1, 4, 1}, []byte{2, 1, 2, 1, 2}, uint16(7))
	f.Add(uint8(1), []byte{1, 2, 1, 1}, []byte{1, 8, 3}, uint16(0))
	f.Fuzz(func(t *testing.T, qb uint8, shareBytes, capBytes []byte, size uint16) {
		q := fuzzQueries[int(qb)%len(fuzzQueries)]
		shares := make([]int, len(q.Vars()))
		for d := range shares {
			shares[d] = 1
			if d < len(shareBytes) {
				shares[d] = 1 + int(shareBytes[d]%5)
			}
		}
		if len(capBytes) == 0 {
			capBytes = []byte{0}
		}
		caps := make([]float64, min(len(capBytes), 12))
		for i := range caps {
			caps[i] = float64(1+capBytes[i]%16) / 4
		}
		sizes := map[string]int64{}
		for i, a := range q.Atoms {
			sizes[a.Name] = 1 + int64(size)*int64(i+1)%997
		}
		pl := PlanWithShares(q, shares, 1)
		bs := boxes(pl, sizes, caps)
		cells, p := pl.GridSize(), len(caps)
		owner := owners(pl, bs)
		for c := 0; c < cells; c++ {
			holders := 0
			for s, b := range bs {
				if b.holds(shares, c) {
					holders++
					if owner[c] != s {
						t.Fatalf("shares %v caps %v: cell %d in server %d's box, owner table says %d", shares, caps, c, s, owner[c])
					}
				}
			}
			if holders != 1 {
				t.Fatalf("shares %v caps %v: cell %d in %d boxes %v", shares, caps, c, holders, bs)
			}
		}
		for s, b := range bs {
			if cells >= p && b.volume() == 0 {
				t.Fatalf("shares %v caps %v: server %d empty on %d cells", shares, caps, s, cells)
			}
			for r, other := range bs {
				if b.volume() == 0 && other.volume() > 0 && (caps[s] > caps[r] || caps[s] == caps[r] && s < r) {
					t.Fatalf("shares %v caps %v: server %d empty, slower server %d holds %v", shares, caps, s, r, other)
				}
			}
		}
	})
}
