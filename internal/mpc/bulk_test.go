package mpc_test

import (
	"fmt"
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
// placed by ScatterByHash and data routed by SendByHash under the same
// attributes and seed have the same owner, so re-partitioning already
// partitioned data sends every tuple to the server that holds it.
func TestScatterAndSendByHashAgree(t *testing.T) {
	input := relation.New("R", "x", "y", "z")
	for i := 0; i < 500; i++ {
		input.Append(relation.Value(i%37), relation.Value(i), relation.Value(i%5))
	}
	c := mpc.NewCluster(7, 1)
	c.ScatterByHash(input, []string{"z", "x"}, 99)
	c.Round("repartition", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel("R")
		out.Open("H", frag.Attrs()...).SendByHash(frag, frag.MustCols([]string{"z", "x"}), 99)
	})
	total := 0
	for i := 0; i < c.P(); i++ {
		r, h := c.Server(i).Rel("R"), c.Server(i).RelOrEmpty("H", "x", "y", "z")
		if r.Len() != h.Len() {
			t.Fatalf("server %d scattered %d tuples but was routed %d", i, r.Len(), h.Len())
		}
		for j := 0; j < r.Len(); j++ {
			if fmt.Sprint(r.Row(j)) != fmt.Sprint(h.Row(j)) {
				t.Fatalf("server %d row %d: scattered %v, routed %v", i, j, r.Row(j), h.Row(j))
			}
		}
		total += r.Len()
	}
	if total != input.Len() {
		t.Fatalf("scatter placed %d of %d tuples", total, input.Len())
	}
}
