package mpc

import (
	"fmt"
	"testing"

	"mpcquery/internal/relation"
)

// TestZeroArityStreamDeliveredAndMetered is the regression test for the
// dropped-tuple bug: the old delivery loop derived tuple counts as
// len(flat)/arity and skipped empty fragments, so a Send on an arity-0
// stream (a boolean/decision-query result) was neither delivered nor
// metered. Counts are now tracked per send.
func TestZeroArityStreamDeliveredAndMetered(t *testing.T) {
	c := NewCluster(4, 1)
	c.Round("vote", func(s *Server, out *Out) {
		st := out.Open("hit")
		// Every server votes once to server 0, and server 3 votes twice
		// to server 1.
		st.Send(0)
		if s.ID() == 3 {
			st.Send(1)
			st.Send(1)
		}
	})
	if got := c.Server(0).Rel("hit"); got == nil || got.Len() != 4 || got.Arity() != 0 {
		t.Fatalf("server 0 votes = %v, want 4 empty tuples", got)
	}
	if got := c.Server(1).Rel("hit"); got == nil || got.Len() != 2 {
		t.Fatalf("server 1 votes = %v, want 2 empty tuples", got)
	}
	if c.Server(2).Rel("hit") != nil {
		t.Fatal("server 2 should hold no votes")
	}
	m := c.Metrics()
	if m.TotalComm() != 6 {
		t.Fatalf("C = %d, want 6 (every empty tuple is a message)", m.TotalComm())
	}
	if m.MaxLoad() != 4 {
		t.Fatalf("L = %d, want 4", m.MaxLoad())
	}
	if m.MaxLoadWords() != 0 {
		t.Fatalf("words = %d, want 0 (empty tuples carry no values)", m.MaxLoadWords())
	}
	if got := c.Gather("hit"); got.Len() != 6 || got.Arity() != 0 {
		t.Fatalf("gather = %v, want 6 empty tuples", got)
	}
}

// TestZeroArityMixedWithRegularStreams pins that nullary and regular
// streams coexist in one round with exact combined metering.
func TestZeroArityMixedWithRegularStreams(t *testing.T) {
	c := NewCluster(3, 1)
	c.Round("mixed", func(s *Server, out *Out) {
		out.Open("data", "x").Send(0, relation.Value(s.ID()))
		out.Open("flag").Send(0)
	})
	m := c.Metrics()
	if m.TotalComm() != 6 {
		t.Fatalf("C = %d, want 6 (3 data + 3 flags)", m.TotalComm())
	}
	if m.MaxLoad() != 6 || m.MaxLoadWords() != 3 {
		t.Fatalf("L = %d words = %d, want 6 tuples / 3 words", m.MaxLoad(), m.MaxLoadWords())
	}
	if c.Server(0).Rel("flag").Len() != 3 || c.Server(0).Rel("data").Len() != 3 {
		t.Fatal("mixed delivery lost tuples")
	}
}

// TestOpenReopenValidatesNames is the regression test for the schema
// merge bug: reopening a stream with the same arity but different
// attribute names used to silently merge two schemas into one relation.
func TestOpenReopenValidatesNames(t *testing.T) {
	c := NewCluster(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on reopen with different attribute names")
		}
	}()
	c.Round("bad", func(s *Server, out *Out) {
		out.Open("A", "x", "y").Send(0, 1, 2)
		out.Open("A", "x", "z").Send(0, 3, 4)
	})
}

// TestOpenReopenSameSchemaAppends: a legitimate reopen with the
// identical schema keeps appending to the same stream.
func TestOpenReopenSameSchemaAppends(t *testing.T) {
	c := NewCluster(2, 1)
	c.Round("ok", func(s *Server, out *Out) {
		out.Open("A", "x", "y").Send(0, 1, 2)
		out.Open("A", "x", "y").Send(0, 3, 4)
	})
	if got := c.Server(0).Rel("A").Len(); got != 4 {
		t.Fatalf("A len = %d, want 4", got)
	}
}

// TestGatherValidatesFragmentSchemas is the regression test for the
// garbage-concatenation bug: Gather took the schema from the first
// non-nil fragment and appended the rest unchecked.
func TestGatherValidatesFragmentSchemas(t *testing.T) {
	c := NewCluster(2, 1)
	c.Server(0).Put(relation.FromRows("X", []string{"a", "b"}, [][]relation.Value{{1, 2}}))
	c.Server(1).Put(relation.FromRows("X", []string{"b", "a"}, [][]relation.Value{{3, 4}}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched fragment schemas")
		}
	}()
	c.Gather("X")
}

// TestDeliverValidatesAttrNames: delivering a stream into an existing
// relation of the same arity but different attribute names panics
// rather than merging schemas.
func TestDeliverValidatesAttrNames(t *testing.T) {
	c := NewCluster(2, 1)
	c.Round("r1", func(s *Server, out *Out) {
		out.Open("A", "x").Send(0, 1)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on attr-name mismatch at delivery")
		}
	}()
	c.Round("r2", func(s *Server, out *Out) {
		out.Open("A", "y").Send(0, 2)
	})
}

// TestBufferPoolReuseAcrossRounds pins the pooling contract: the same
// stream object (and its per-destination slabs) is recycled across
// consecutive rounds instead of being reallocated, and reuse is
// invisible to delivered results.
func TestBufferPoolReuseAcrossRounds(t *testing.T) {
	c := NewCluster(4, 1)
	send := func(s *Server, out *Out) {
		st := out.Open("A", "x")
		for i := 0; i < 100; i++ {
			st.Send(i%s.P(), relation.Value(i))
		}
	}
	c.Round("r1", send)
	st1 := c.outs[0].spare["A"]
	if st1 == nil {
		t.Fatal("stream not parked in spare pool after round")
	}
	cap1 := cap(st1.perDst[0])
	if cap1 == 0 {
		t.Fatal("parked stream lost its slab capacity")
	}
	if len(st1.perDst[0]) != 0 || st1.counts[0] != 0 {
		t.Fatal("parked stream not reset")
	}
	c.Round("r2", send)
	st2 := c.outs[0].spare["A"]
	if st1 != st2 {
		t.Fatal("stream was reallocated instead of reused")
	}
	if cap(st2.perDst[0]) < cap1 {
		t.Fatal("slab capacity shrank across rounds")
	}
	if got := c.TotalLen("A"); got != 800 {
		t.Fatalf("total after 2 rounds = %d, want 800", got)
	}
	// Reuse under a different schema for the same stream name.
	c.DeleteAll("A")
	c.Round("r3", func(s *Server, out *Out) {
		out.Open("A", "u", "v").Send(0, 1, 2)
	})
	got := c.Server(0).Rel("A")
	if got.Arity() != 2 || got.Len() != 4 {
		t.Fatalf("schema-changed reuse delivered %v", got)
	}
}

// TestConcurrentDeliveryMatchesReference drives the concurrent local
// transport (workers forced > 1 so it exercises real concurrency even
// on one CPU) against the row-by-row reference transport on a randomized
// multi-round program, asserting identical metering and bit-for-bit
// identical fragments. Under -race this is also the delivery race test.
func TestConcurrentDeliveryMatchesReference(t *testing.T) {
	program := func(c *Cluster) {
		for r := 0; r < 4; r++ {
			c.Round(fmt.Sprintf("r%d", r), func(s *Server, out *Out) {
				st := out.Open("A", "x", "src")
				for i := 0; i < 300; i++ {
					st.Send(s.Rng().Intn(s.P()), relation.Value(i), relation.Value(s.ID()))
				}
				if s.ID()%2 == 0 {
					out.Open("B", "w").Broadcast(relation.Value(s.ID()))
				}
				out.Open("tick").Send(r % s.P())
			})
		}
	}
	fast := NewCluster(24, 99)
	fast.SetTransport(LocalTransportWorkers(8))
	program(fast)
	ref := NewCluster(24, 99)
	ref.SetTransport(ReferenceTransport())
	program(ref)
	assertClustersEqual(t, fast, ref)
}

// assertClustersEqual asserts identical round metrics and bit-for-bit
// identical per-server fragments between two clusters.
func assertClustersEqual(t *testing.T, a, b *Cluster) {
	t.Helper()
	as, bs := a.Metrics().RoundStats(), b.Metrics().RoundStats()
	if len(as) != len(bs) {
		t.Fatalf("round counts differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i].Name != bs[i].Name {
			t.Fatalf("round %d name %q vs %q", i, as[i].Name, bs[i].Name)
		}
		for d := range as[i].Recv {
			if as[i].Recv[d] != bs[i].Recv[d] || as[i].RecvWords[d] != bs[i].RecvWords[d] {
				t.Fatalf("round %q server %d: recv %d/%d words %d/%d",
					as[i].Name, d, as[i].Recv[d], bs[i].Recv[d], as[i].RecvWords[d], bs[i].RecvWords[d])
			}
		}
	}
	for i := 0; i < a.P(); i++ {
		sa, sb := a.Server(i), b.Server(i)
		na, nb := sa.RelNames(), sb.RelNames()
		if len(na) != len(nb) {
			t.Fatalf("server %d holds %v vs %v", i, na, nb)
		}
		for j, name := range na {
			if name != nb[j] {
				t.Fatalf("server %d holds %v vs %v", i, na, nb)
			}
			ra, rb := sa.Rel(name), sb.Rel(name)
			if !attrsEqual(ra.Attrs(), rb.Attrs()) || ra.Len() != rb.Len() {
				t.Fatalf("server %d rel %s: %v/%d vs %v/%d", i, name, ra.Attrs(), ra.Len(), rb.Attrs(), rb.Len())
			}
			for k := 0; k < ra.Len(); k++ {
				wa, wb := ra.Row(k), rb.Row(k)
				for x := range wa {
					if wa[x] != wb[x] {
						t.Fatalf("server %d rel %s row %d differs: %v vs %v", i, name, k, wa, wb)
					}
				}
			}
		}
	}
}

// TestMixSeedDistinct pins the splitmix64 seeding fix: the old one-shift
// xor mix correlated RNG streams across nearby (seed, i) pairs; the full
// finalizer must give every (seed, server) pair a distinct seed.
func TestMixSeedDistinct(t *testing.T) {
	seen := make(map[int64][2]int, 64*64)
	for seed := 0; seed < 64; seed++ {
		for i := 0; i < 64; i++ {
			m := mixSeed(int64(seed), i)
			if prev, ok := seen[m]; ok {
				t.Fatalf("mixSeed collision: (seed=%d,i=%d) and (seed=%d,i=%d) -> %d",
					prev[0], prev[1], seed, i, m)
			}
			seen[m] = [2]int{seed, i}
		}
	}
	// The servers' first draws should also be (near-)distinct: with the
	// old mix, consecutive seeds produced identical low bits. Allow a
	// tiny number of birthday collisions over the 31-bit draw space.
	draws := make(map[int64]int)
	collisions := 0
	for seed := 0; seed < 32; seed++ {
		c := NewCluster(32, int64(seed))
		for i := 0; i < 32; i++ {
			v := c.Server(i).Rng().Int63()
			if _, ok := draws[v]; ok {
				collisions++
			}
			draws[v] = 1
		}
	}
	if collisions > 2 {
		t.Fatalf("%d identical first draws across 1024 (seed,server) pairs", collisions)
	}
}
