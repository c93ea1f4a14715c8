package mpc_test

import (
	"fmt"
	"runtime"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// TestMeteringEquivalenceOnGeneratedWorkloads runs the same multi-round
// communication program — hash partition, RNG re-route, sampled
// broadcast, and an arity-0 decision stream — over the testkit workload
// generator's full skew matrix, once on the concurrent local transport
// (on four CPUs, whatever the machine) and once on the row-by-row
// reference transport, and asserts that the
// metered RoundStats are identical and the gathered relations are
// bit-for-bit equal. This is the contract of the delivery overhaul:
// (L, r, C) and every delivered fragment are unchanged observables.
func TestMeteringEquivalenceOnGeneratedWorkloads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, skew := range testkit.AllSkews {
		for _, p := range []int{2, 7, 16} {
			for _, seed := range []int64{1, 2, 3} {
				skew, p, seed := skew, p, seed
				t.Run(fmt.Sprintf("%s/p%d/seed%d", skew, p, seed), func(t *testing.T) {
					input := testkit.GenRelation("R", []string{"x", "y", "z"}, skew, testkit.GenConfig{Tuples: 400}, seed)

					run := func(c *mpc.Cluster) {
						c.ScatterRoundRobin(input)
						c.Round("partition", func(s *mpc.Server, out *mpc.Out) {
							frag := s.Rel("R")
							st := out.Open("H", "x", "y", "z")
							for i := 0; i < frag.Len(); i++ {
								row := frag.Row(i)
								st.SendRow(relation.Bucket(relation.HashRow(row, []int{0}, 42), s.P()), row)
							}
						})
						c.Round("reroute", func(s *mpc.Server, out *mpc.Out) {
							frag := s.Rel("H")
							if frag == nil {
								return
							}
							st := out.Open("G", "x", "y", "z")
							done := out.Open("done")
							for i := 0; i < frag.Len(); i++ {
								st.SendRow(s.Rng().Intn(s.P()), frag.Row(i))
							}
							done.Send(0)
						})
						c.Round("sample", func(s *mpc.Server, out *mpc.Out) {
							frag := s.Rel("G")
							if frag == nil || frag.Len() == 0 {
								return
							}
							out.Open("S", "x", "y", "z").Broadcast(frag.Row(s.Rng().Intn(frag.Len()))...)
						})
					}

					fast := mpc.NewCluster(p, seed)
					run(fast)
					ref := mpc.NewCluster(p, seed)
					ref.SetTransport(mpc.ReferenceTransport())
					run(ref)

					fs, rs := fast.Metrics().RoundStats(), ref.Metrics().RoundStats()
					if len(fs) != len(rs) {
						t.Fatalf("rounds %d vs %d", len(fs), len(rs))
					}
					for i := range fs {
						if fs[i].Name != rs[i].Name {
							t.Fatalf("round %d: %q vs %q", i, fs[i].Name, rs[i].Name)
						}
						for d := 0; d < p; d++ {
							if fs[i].Recv[d] != rs[i].Recv[d] || fs[i].RecvWords[d] != rs[i].RecvWords[d] {
								t.Fatalf("round %q server %d: (%d,%d) vs (%d,%d)", fs[i].Name, d,
									fs[i].Recv[d], fs[i].RecvWords[d], rs[i].Recv[d], rs[i].RecvWords[d])
							}
						}
					}
					for _, name := range []string{"H", "G", "S", "done"} {
						a, b := fast.Gather(name), ref.Gather(name)
						if a.Len() != b.Len() {
							t.Fatalf("%s: %d vs %d tuples", name, a.Len(), b.Len())
						}
						for i := 0; i < a.Len(); i++ {
							ra, rb := a.Row(i), b.Row(i)
							for j := range ra {
								if ra[j] != rb[j] {
									t.Fatalf("%s row %d: %v vs %v", name, i, ra, rb)
								}
							}
						}
					}
				})
			}
		}
	}
}
