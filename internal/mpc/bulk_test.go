package mpc_test

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/mpcnet"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// bulkProgram routes every server's fragment of R twice in one round —
// hash-partitioned onto H, replicated onto B — either with the bulk
// calls or with the per-row loops they replace, each time between two
// ordinary Sends on the same stream.
func bulkProgram(c *mpc.Cluster, input *relation.Relation, cols []int, bulk bool) {
	c.ScatterRoundRobin(input)
	attrs := input.Attrs()
	marker := make([]relation.Value, len(attrs))
	c.Round("route", func(s *mpc.Server, out *mpc.Out) {
		frag, p := s.Rel("R"), s.P()
		h := out.Open("H", attrs...)
		h.Send(s.ID()%p, marker...)
		if bulk {
			h.SendByHash(frag, cols, 42)
		} else {
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				h.SendRow(relation.Bucket(relation.HashRow(row, cols, 42), p), row)
			}
		}
		h.Send((s.ID()+1)%p, marker...)
		b := out.Open("B", attrs...)
		b.Send(0, marker...)
		if bulk {
			b.BroadcastAll(frag)
		} else {
			for i := 0; i < frag.Len(); i++ {
				b.Broadcast(frag.Row(i)...)
			}
		}
		b.Send(p-1, marker...)
	})
}

// TestBulkRoutingMatchesPerRowLoop is the contract of SendByHash and
// BroadcastAll: fragments (bit for bit, row order included), RoundStats
// and trace events are those of the per-row loop, for every arity, for
// empty and single-destination fragments, interleaved with ordinary
// sends, on the local transport and over loopback TCP.
func TestBulkRoutingMatchesPerRowLoop(t *testing.T) {
	allAttrs := []string{"x", "y", "z"}
	for arity := 0; arity <= 3; arity++ {
		var cols []int
		if arity > 0 {
			cols = append(cols, arity-1)
		}
		if arity > 1 {
			cols = append(cols, 0)
		}
		for _, p := range []int{1, 3, 8} {
			for _, shape := range []string{"empty", "single-dst", "spread"} {
				input := relation.New("R", allAttrs[:arity]...)
				row := make([]relation.Value, arity)
				for i := 0; i < 200 && shape != "empty"; i++ {
					for j := range row {
						row[j] = relation.Value(i*(j+3) + j)
						if shape == "single-dst" {
							row[j] = relation.Value(7 + j)
						}
					}
					input.AppendRow(row)
				}
				for _, backend := range []string{"local", "tcp"} {
					arity, cols, p, input, backend := arity, cols, p, input, backend
					t.Run(fmt.Sprintf("arity%d/p%d/%s/%s", arity, p, shape, backend), func(t *testing.T) {
						run := func(bulk bool) (*mpc.Cluster, *trace.Recorder) {
							c := mpc.NewCluster(p, 5)
							rec := trace.NewRecorder()
							c.SetTracer(rec)
							if backend == "tcp" {
								tr, err := mpcnet.NewLoopback(p, mpcnet.Options{})
								if err != nil {
									t.Fatal(err)
								}
								defer tr.Close()
								c.SetTransport(tr)
							}
							bulkProgram(c, input, cols, bulk)
							return c, rec
						}
						loop, loopRec := run(false)
						bulk, bulkRec := run(true)
						assertSameClusters(t, loop, bulk, loopRec, bulkRec, []string{"H", "B"})
						if shape == "single-dst" {
							if l := bulk.Metrics().MaxLoad(); l < int64(input.Len()) {
								t.Fatalf("single-destination input spread out: L = %d < %d", l, input.Len())
							}
						}
					})
				}
			}
		}
	}
}

// TestScatterAndSendByHashAgree pins the co-location guarantee: data
// placed by ScatterByHash, data routed by SendByHash and rows routed one
// by one to their Owner under the same variables and query seed have the
// same owner, whatever column the variables sit in. So R(x, y) and
// S(y, z) hashed on y meet on one server per y value, and re-partitioning
// already partitioned data sends every tuple to the server that holds
// it: the round's Self is all it receives.
func TestScatterAndSendByHashAgree(t *testing.T) {
	r3 := relation.New("R", "x", "y", "z")
	r, s := relation.New("R", "x", "y"), relation.New("S", "y", "z")
	for i := 0; i < 500; i++ {
		r3.Append(relation.Value(i%37), relation.Value(i), relation.Value(i%5))
		r.Append(relation.Value(i), relation.Value(i%41))
		s.Append(relation.Value(i%41), relation.Value(i*3))
	}
	for _, tc := range []struct {
		name string
		key  []string
		rels []*relation.Relation
	}{
		{"composite key", []string{"z", "x"}, []*relation.Relation{r3}},
		{"y in columns 1 and 0", []string{"y"}, []*relation.Relation{r, s}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := mpc.HashSeed(99, tc.key...)
			c := mpc.NewCluster(7, 1)
			for _, rel := range tc.rels {
				c.ScatterByHash(rel, tc.key, seed)
			}
			c.Round("repartition", func(srv *mpc.Server, out *mpc.Out) {
				for _, rel := range tc.rels {
					frag := srv.Rel(rel.Name())
					cols := frag.MustCols(tc.key)
					out.Open(rel.Name()+":H", frag.Attrs()...).SendByHash(frag, cols, seed)
					st := out.Open(rel.Name()+":O", frag.Attrs()...)
					for i := 0; i < frag.Len(); i++ {
						st.SendRow(mpc.Owner(frag.Row(i), cols, seed, srv.P()), frag.Row(i))
					}
				}
			})
			owner := map[string]int{}
			for _, rel := range tc.rels {
				total := 0
				for i := 0; i < c.P(); i++ {
					frag := c.Server(i).Rel(rel.Name())
					for _, routed := range []string{":H", ":O"} {
						h := c.Server(i).RelOrEmpty(rel.Name()+routed, rel.Attrs()...)
						if frag.Len() != h.Len() {
							t.Fatalf("server %d scattered %d tuples of %s but was routed %d on %s", i, frag.Len(), rel.Name(), h.Len(), routed)
						}
						for j := 0; j < frag.Len(); j++ {
							if fmt.Sprint(frag.Row(j)) != fmt.Sprint(h.Row(j)) {
								t.Fatalf("server %d row %d: scattered %v, routed %v on %s", i, j, frag.Row(j), h.Row(j), routed)
							}
						}
					}
					cols := frag.MustCols(tc.key)
					for j := 0; j < frag.Len(); j++ {
						var k string
						for _, col := range cols {
							k += fmt.Sprint(frag.Row(j)[col], " ")
						}
						if o, ok := owner[k]; ok && o != i {
							t.Fatalf("%v = %s on servers %d and %d", tc.key, k, o, i)
						}
						owner[k] = i
					}
					total += frag.Len()
				}
				if total != rel.Len() {
					t.Fatalf("scatter placed %d of %d tuples of %s", total, rel.Len(), rel.Name())
				}
			}
			if st := c.Metrics().RoundStats()[0]; st.Self != st.TotalRecv() {
				t.Errorf("re-partition kept %d of %d tuples in place", st.Self, st.TotalRecv())
			}
		})
	}
	if mpc.HashSeed(99, "ab", "c") == mpc.HashSeed(99, "a", "bc") {
		t.Error("HashSeed is not prefix-free over variable names")
	}
}

// TestScattersPlaceRowByRow is the contract of the scatters' bulk
// loops: for every arity (nullary relations, placed by count only,
// included) ScatterRoundRobin gives server i rows i, i+p, i+2p, … and
// ScatterByHash gives server i the rows whose Owner is i, each in input
// order, in storage sized exactly for them.
func TestScattersPlaceRowByRow(t *testing.T) {
	allAttrs := []string{"x", "y", "z"}
	for arity := 0; arity <= 3; arity++ {
		input := relation.New("R", allAttrs[:arity]...)
		row := make([]relation.Value, arity)
		for i := 0; i < 300; i++ {
			for j := range row {
				row[j] = relation.Value(i * (j + 5) % 97)
			}
			input.AppendRow(row)
		}
		key := allAttrs[:min(arity, 1)]
		cols := input.MustCols(key)
		for _, p := range []int{1, 3, 8} {
			rr, byHash := mpc.NewCluster(p, 1), mpc.NewCluster(p, 1)
			rr.ScatterRoundRobin(input)
			byHash.ScatterByHash(input, key, 7)
			for i := 0; i < p; i++ {
				wantRR, wantHash := input.Empty(), input.Empty()
				for j := 0; j < input.Len(); j++ {
					if j%p == i {
						wantRR.AppendRow(input.Row(j))
					}
					if mpc.Owner(input.Row(j), cols, 7, p) == i {
						wantHash.AppendRow(input.Row(j))
					}
				}
				for _, tc := range []struct {
					name      string
					got, want *relation.Relation
				}{{"round-robin", rr.Server(i).Rel("R"), wantRR}, {"by hash", byHash.Server(i).Rel("R"), wantHash}} {
					if tc.got.Len() != tc.want.Len() || !slices.Equal(tc.got.Flat(), tc.want.Flat()) {
						t.Fatalf("arity %d, p %d, server %d: %s scatter placed %v, want %v", arity, p, i, tc.name, tc.got, tc.want)
					}
					if tc.got.Cap() != tc.got.Words() {
						t.Fatalf("arity %d, p %d, server %d: %s fragment holds %d words of storage for %d", arity, p, i, tc.name, tc.got.Cap(), tc.got.Words())
					}
				}
			}
		}
	}
}

// TestScatterAllocsIndependentOfLength is the scatters' allocation
// wall: placing 10 000 rows allocates exactly as often as placing 100,
// so neither scatter allocates per row.
func TestScatterAllocsIndependentOfLength(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) (rr, byHash float64) {
		rel := relation.New("R", "x", "y")
		for i := 0; i < n; i++ {
			rel.Append(relation.Value(i), relation.Value(i%89))
		}
		c := mpc.NewCluster(8, 1)
		rr = testing.AllocsPerRun(10, func() { c.ScatterRoundRobin(rel) })
		byHash = testing.AllocsPerRun(10, func() { c.ScatterByHash(rel, []string{"y"}, 5) })
		return rr, byHash
	}
	rr100, hash100 := allocs(100)
	rr10k, hash10k := allocs(10_000)
	t.Logf("allocations: ScatterRoundRobin %v / %v, ScatterByHash %v / %v at 100 / 10 000 rows", rr100, rr10k, hash100, hash10k)
	if rr100 != rr10k || hash100 != hash10k {
		t.Fatalf("scatter allocations depend on the input size: ScatterRoundRobin %v / %v, ScatterByHash %v / %v at 100 / 10 000 rows",
			rr100, rr10k, hash100, hash10k)
	}
}
