package mpc_test

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// TestFragmentIsolation is the regression test for a latent
// single-process assumption: delivered fragments must be copies, never
// views into shared storage. A server that mutates a tuple it received
// must not be able to change (a) another server's copy of the same
// logical fragment, (b) the source's own relations, or (c) what a later
// round delivers — the round buffers are pooled, so aliasing would make
// a mutation in round k reappear as corrupt data in round k+1. The test
// pins the guarantee on both the local transport and a RoundView-based
// one, whose Land path is what real wire backends use.
func TestFragmentIsolation(t *testing.T) {
	backends := []struct {
		name string
		tr   mpc.Transport
	}{
		{"local-default", nil},
		{"portable", mpc.PortableTransport{}},
	}
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			run := func(mutate bool) *mpc.Cluster {
				c := mpc.NewCluster(3, 7)
				if be.tr != nil {
					c.SetTransport(be.tr)
				}
				input := relation.New("R", "a", "b")
				for i := 0; i < 30; i++ {
					input.Append(relation.Value(i), relation.Value(i*i))
				}
				c.ScatterRoundRobin(input)
				broadcastR := func(into string) func(*mpc.Server, *mpc.Out) {
					return func(s *mpc.Server, out *mpc.Out) {
						frag := s.Rel("R")
						st := out.Open(into, "a", "b")
						for i := 0; i < frag.Len(); i++ {
							st.Broadcast(frag.Row(i)...)
						}
					}
				}
				c.Round("first", broadcastR("X"))
				if mutate {
					// Server 0 scribbles over every tuple it received.
					x := c.Server(0).Rel("X")
					for i := 0; i < x.Len(); i++ {
						row := x.Row(i)
						for j := range row {
							row[j] = -999
						}
					}
				}
				c.Round("second", broadcastR("Y"))
				return c
			}

			clean := run(false)
			dirty := run(true)

			// (a) Other servers' copies of X are untouched, (b) the
			// sources' R fragments are untouched, (c) round two delivered
			// pristine data everywhere despite buffer pooling.
			for i := 0; i < clean.P(); i++ {
				for _, name := range []string{"R", "Y"} {
					assertSameFragment(t, clean, dirty, i, name)
				}
				if i != 0 {
					assertSameFragment(t, clean, dirty, i, "X")
				}
			}
			// Sanity: the scribble itself is visible on server 0, so the
			// test is actually mutating live storage, not a copy.
			if got := dirty.Server(0).Rel("X").Row(0)[0]; got != -999 {
				t.Fatalf("mutation did not stick: got %d", got)
			}
		})
	}
}

// assertSameFragment asserts server i's fragment of name is bit-
// identical in both clusters.
func assertSameFragment(t *testing.T, a, b *mpc.Cluster, i int, name string) {
	t.Helper()
	fa, fb := a.Server(i).Rel(name), b.Server(i).Rel(name)
	if (fa == nil) != (fb == nil) {
		t.Fatalf("%s server %d: present %v vs %v", name, i, fa != nil, fb != nil)
	}
	if fa == nil {
		return
	}
	if fa.Len() != fb.Len() {
		t.Fatalf("%s server %d: %d vs %d tuples", name, i, fa.Len(), fb.Len())
	}
	for r := 0; r < fa.Len(); r++ {
		ra, rb := fa.Row(r), fb.Row(r)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("%s server %d row %d: %v vs %v", name, i, r, ra, rb)
			}
		}
	}
}
