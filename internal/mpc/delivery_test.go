package mpc

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
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
	if got := maxRecvWords(m); got != 0 {
		t.Fatalf("words = %d, want 0 (empty tuples carry no values)", got)
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
	if m.MaxLoad() != 6 || maxRecvWords(m) != 3 {
		t.Fatalf("L = %d words = %d, want 6 tuples / 3 words", m.MaxLoad(), maxRecvWords(m))
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
	c.Round("bad", func(s *Server, out *Out) {
		out.Open("A", "x", "y").Send(0, 1, 2)
		out.Open("A", "x", "z").Send(0, 3, 4)
	})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), `mpc: stream A reopened with attribute "z" at position 1, want "y"`) {
		t.Fatalf("reopen with different attribute names: Err %v", err)
	}
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
// relation of the same arity but different attribute names fails the
// round rather than merging schemas.
func TestDeliverValidatesAttrNames(t *testing.T) {
	c := NewCluster(2, 1)
	c.Round("r1", func(s *Server, out *Out) {
		out.Open("A", "x").Send(0, 1)
	})
	c.Round("r2", func(s *Server, out *Out) {
		out.Open("A", "y").Send(0, 2)
	})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "delivers A with attrs [y] into existing attrs [x]") {
		t.Fatalf("attr-name mismatch at delivery: Err %v", err)
	}
}

// TestBufferPoolReuseAcrossRounds pins the pooling contract: a round's
// stream objects (and their per-destination slabs) are parked after
// delivery and taken over by the next round's streams, whatever those
// are named, instead of being reallocated, and reuse is invisible to
// delivered results.
func TestBufferPoolReuseAcrossRounds(t *testing.T) {
	c := NewCluster(4, 1)
	send := func(name string) func(s *Server, out *Out) {
		return func(s *Server, out *Out) {
			st := out.Open(name, "x")
			for i := 0; i < 100; i++ {
				st.Send(i%s.P(), relation.Value(i))
			}
		}
	}
	c.Round("r1", send("A"))
	if len(c.outs[0].spare) != 1 {
		t.Fatalf("%d streams parked after a one-stream round, want 1", len(c.outs[0].spare))
	}
	st1 := c.outs[0].spare[0]
	cap1 := cap(st1.perDst[0])
	if cap1 == 0 {
		t.Fatal("parked stream lost its slab capacity")
	}
	if len(st1.perDst[0]) != 0 || st1.counts[0] != 0 {
		t.Fatal("parked stream not reset")
	}
	c.Round("r2", send("B"))
	if len(c.outs[0].spare) != 1 {
		t.Fatalf("%d streams parked after two one-stream rounds, want 1", len(c.outs[0].spare))
	}
	st2 := c.outs[0].spare[0]
	if st1 != st2 {
		t.Fatal("a stream under a new name was reallocated instead of taking the parked one")
	}
	if st2.name != "B" {
		t.Fatalf("reused stream is named %q, want B", st2.name)
	}
	if cap(st2.perDst[0]) < cap1 {
		t.Fatal("slab capacity shrank across rounds")
	}
	if a, b := c.TotalLen("A"), c.TotalLen("B"); a != 400 || b != 400 {
		t.Fatalf("delivered A=%d B=%d tuples, want 400 each", a, b)
	}
	// Reuse under a different schema, and a second stream beside it:
	// the first opened takes the parked stream, the second is new.
	c.Round("r3", func(s *Server, out *Out) {
		out.Open("C", "u", "v").Send(0, 1, 2)
		out.Open("D", "w").Send(1, 3)
	})
	if got := c.Server(0).Rel("C"); got.Arity() != 2 || got.Len() != 4 {
		t.Fatalf("schema-changed reuse delivered %v", got)
	}
	if got := c.Server(1).Rel("D"); got.Arity() != 1 || got.Len() != 4 {
		t.Fatalf("second stream delivered %v", got)
	}
	if spare := c.outs[0].spare; len(spare) != 2 || spare[1] != st1 {
		t.Fatal("the round's first stream did not take the parked one")
	}
}

// mallocs returns how many heap allocations f makes.
func mallocs(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestShuffleOntoFreshNameAllocatesAsOldName pins slab reuse across
// stream names: once a round has grown the slabs, a shuffle of equal
// volume onto a name no round used before allocates exactly what one
// onto the warm-up round's name does. Each shuffle lands in a fresh
// receiver and a fresh ledger, so only the send side can differ; the
// least of three runs drops a goroutine the runtime had to make.
func TestShuffleOntoFreshNameAllocatesAsOldName(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := NewCluster(4, 1)
	frag := relation.New("F", "x", "y")
	for i := 0; i < 400; i++ {
		frag.Append(relation.Value(i), relation.Value(i%13))
	}
	c.ScatterRoundRobin(frag)
	shuffle := func(to string) uint64 {
		c.ResetMetrics()
		n := mallocs(func() { c.Shuffle("s", Send{From: "F", To: to, Policy: Hash(7, "x")}) })
		c.DeleteAll(to)
		return n
	}
	shuffle("A")
	old := min(shuffle("A"), shuffle("A"), shuffle("A"))
	fresh := min(shuffle("B1"), shuffle("B2"), shuffle("B3"))
	t.Logf("allocations per shuffle: %d onto the old name, %d onto a fresh one", old, fresh)
	if fresh != old {
		t.Fatalf("a shuffle onto a fresh name allocates %d times, onto the old name %d", fresh, old)
	}
}

// TestHashSendOnWarmOutAllocatesNothing pins the hash send's scratch:
// per-row owners and per-destination counts live in the Out, and Open
// hands back the parked stream's handle, so on a warm Out sending a
// fragment under a hash policy allocates nothing, one fragment or four.
func TestHashSendOnWarmOutAllocatesNothing(t *testing.T) {
	o := &Out{p: 8, streams: map[string]*stream{}}
	frag := relation.New("F", "x", "y")
	for i := 0; i < 500; i++ {
		frag.Append(relation.Value(i), relation.Value(i*3))
	}
	pl := Hash(7, "x")
	send := func(frags int) func() {
		return func() {
			for i := 0; i < frags; i++ {
				pl.send(o, "A", frag)
			}
			o.reset()
		}
	}
	send(4)()
	if one, four := testing.AllocsPerRun(10, send(1)), testing.AllocsPerRun(10, send(4)); one != 0 || four != 0 {
		t.Fatalf("hash sends on a warm Out allocate %v times for one fragment, %v for four; want 0", one, four)
	}
}

// TestConcurrentDeliveryMatchesReference drives the local transport
// (each destination on its own goroutine, on eight CPUs whatever the
// machine, so delivery runs genuinely in parallel) against the
// row-by-row reference transport on a randomized multi-round program,
// asserting identical metering and bit-for-bit identical fragments.
// Under -race this is also the delivery race test.
func TestConcurrentDeliveryMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
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
			if !slices.Equal(ra.Attrs(), rb.Attrs()) || ra.Len() != rb.Len() {
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
