package mpc

import (
	"fmt"
	"testing"

	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// Delivery-path micro-benchmarks. The workload is a shuffle: a fixed
// cluster-wide tuple volume, split evenly across source servers, each
// source spraying its share round-robin over all destinations — the
// access pattern of every hash-partition round, and the regime where
// per-(src,dst) chunks shrink as p grows (4 tuples per chunk at p=256).
const (
	benchTuples = 1 << 17 // cluster-wide tuples per round
	benchArity  = 2
)

var benchPs = []int{8, 64, 256}

// benchFill opens one stream on out and sends src's share of the
// shuffle to all destinations.
func benchFill(s *Server, out *Out) {
	st := out.Open("M", "a", "b")
	per := benchTuples / s.P()
	for i := 0; i < per; i++ {
		st.Send((i+s.ID())%s.P(), relation.Value(i), relation.Value(s.ID()))
	}
}

// BenchmarkRound times a full communication round: parallel compute
// (the send loop) plus delivery and metering.
func BenchmarkRound(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			c := NewCluster(p, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Round("shuffle", benchFill)
				b.StopTimer()
				c.DeleteAll("M")
				c.ResetMetrics()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRoundTraced measures what tracing costs on the shuffle
// round. "off" is a cluster with no recorder attached — the default
// path every production run takes, which the benchcheck gate holds to
// within 5% of the committed BenchmarkRound baseline. "on" attaches a
// live recorder (a fresh one each iteration, so event slices don't grow
// without bound) and shows the price of drawing every round as it
// commits.
func BenchmarkRoundTraced(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		for _, p := range benchPs {
			b.Run(fmt.Sprintf("%s/p%d", mode, p), func(b *testing.B) {
				c := NewCluster(p, 1)
				attach := func() {
					if mode == "on" {
						c.SetTracer(trace.NewRecorder())
					}
				}
				attach()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Round("shuffle", benchFill)
					b.StopTimer()
					c.DeleteAll("M")
					c.ResetMetrics()
					attach()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkDeliver isolates the delivery path: outs are built once and
// reused (the commit only reads them), so the timed region is exactly
// "move every fragment into its destination server and meter it".
func BenchmarkDeliver(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			c := NewCluster(p, 1)
			outs := benchOuts(c)
			for i := 0; i < p; i++ {
				benchFill(c.servers[i], outs[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.deliverCommit("shuffle", outs)
				b.StopTimer()
				c.DeleteAll("M")
				c.ResetMetrics()
				b.StartTimer()
			}
		})
	}
}

// benchOuts returns the cluster's pooled round buffers, exactly the
// ones Round would hand to compute.
func benchOuts(c *Cluster) []*Out {
	return c.roundOuts()
}

// BenchmarkTuplePath times the routing layer's bulk loops at p = 8 on
// 40 000 binary rows (the size of the benchmark's batch_oneround
// inputs): both scatters, a hash Shuffle, and a grid Shuffle over
// shares (2, 2, 2) whose third dimension is free, so every row goes to
// two of the eight servers. A shuffle's time includes its delivery and
// metering; the scatters place, and meter nothing.
func BenchmarkTuplePath(b *testing.B) {
	const p, n = 8, 40000
	rel := relation.New("R", "x", "y")
	for i := 0; i < n; i++ {
		rel.Append(relation.Value(i), relation.Value(i*7%1009))
	}
	grid := Grid([]int{2, 2, 2}, []uint64{11, 12, 13}, []int{0, 1, -1}, nil)
	b.Run("ScatterRoundRobin", func(b *testing.B) {
		c := NewCluster(p, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.ScatterRoundRobin(rel)
		}
	})
	b.Run("ScatterByHash", func(b *testing.B) {
		c := NewCluster(p, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.ScatterByHash(rel, []string{"y"}, 5)
		}
	})
	for _, sh := range []struct {
		name   string
		policy Policy
	}{{"HashShuffle", Hash(5, "y")}, {"GridShuffle", grid}} {
		b.Run(sh.name, func(b *testing.B) {
			c := NewCluster(p, 1)
			c.ScatterRoundRobin(rel)
			c.Shuffle("warm", Send{From: "R", To: "T", Policy: sh.policy})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Shuffle("route", Send{From: "R", To: "T", Policy: sh.policy})
				b.StopTimer()
				c.DeleteAll("T")
				c.ResetMetrics()
				b.StartTimer()
			}
		})
	}
}
