package mpc

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"mpcquery/internal/relation"
)

func TestClusterConstruction(t *testing.T) {
	c := NewCluster(4, 1)
	if c.P() != 4 {
		t.Fatalf("p = %d", c.P())
	}
	for i := 0; i < 4; i++ {
		if c.Server(i).ID() != i || c.Server(i).P() != 4 {
			t.Fatalf("server %d misconfigured", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	NewCluster(0, 1)
}

// TestServerRngIsMadeOnFirstDraw: NewCluster allocates no random
// source (at most two allocations per extra server: the Server and its
// relation map), and each server's Rng yields the sequence of a source
// seeded with mixSeed(seed, id).
func TestServerRngIsMadeOnFirstDraw(t *testing.T) {
	four := testing.AllocsPerRun(20, func() { NewCluster(4, 1) })
	eight := testing.AllocsPerRun(20, func() { NewCluster(8, 1) })
	if eight-four > 2*4 {
		t.Fatalf("NewCluster allocates %.0f at p=4 and %.0f at p=8: more than 2 per extra server", four, eight)
	}
	const seed = 7
	c := NewCluster(3, seed)
	for i := 0; i < c.P(); i++ {
		want := rand.New(rand.NewSource(mixSeed(seed, i)))
		rng := c.Server(i).Rng()
		for j := 0; j < 5; j++ {
			if got, w := rng.Int63(), want.Int63(); got != w {
				t.Fatalf("server %d draw %d: %d, want %d", i, j, got, w)
			}
		}
		if c.Server(i).Rng() != rng {
			t.Fatalf("server %d: a second Rng call made a new source", i)
		}
	}
}

func TestScatterRoundRobin(t *testing.T) {
	c := NewCluster(3, 1)
	r := relation.New("R", "x")
	for i := int64(0); i < 10; i++ {
		r.Append(i)
	}
	c.ScatterRoundRobin(r)
	if got := c.TotalLen("R"); got != 10 {
		t.Fatalf("total = %d", got)
	}
	// Round-robin balance: sizes within 1.
	if c.MaxFragLen("R") > 4 {
		t.Fatalf("max frag = %d", c.MaxFragLen("R"))
	}
	// Scatter is free.
	if c.Metrics().Rounds() != 0 || c.Metrics().TotalComm() != 0 {
		t.Fatalf("scatter should not be metered: %v", c.Metrics())
	}
	got := c.Gather("R")
	if !got.EqualAsSets(r) {
		t.Fatalf("gather lost tuples")
	}
}

func TestScatterByHashColocation(t *testing.T) {
	c := NewCluster(5, 1)
	r := relation.New("R", "x", "y")
	for i := int64(0); i < 100; i++ {
		r.Append(i%7, i)
	}
	c.ScatterByHash(r, []string{"x"}, 99)
	// All tuples with equal x must live on one server.
	owner := map[int64]int{}
	for i := 0; i < c.P(); i++ {
		f := c.Server(i).Rel("R")
		if f == nil {
			continue
		}
		for j := 0; j < f.Len(); j++ {
			x := f.Row(j)[0]
			if prev, ok := owner[x]; ok && prev != i {
				t.Fatalf("x=%d on servers %d and %d", x, prev, i)
			}
			owner[x] = i
		}
	}
}

func TestRoundDeliveryAndMetering(t *testing.T) {
	c := NewCluster(4, 1)
	// Each server sends its id to server (id+1)%p, and server 0 also
	// broadcasts one tuple.
	c.Round("shift", func(s *Server, out *Out) {
		st := out.Open("M", "v")
		st.Send((s.ID()+1)%s.P(), relation.Value(s.ID()))
		if s.ID() == 0 {
			b := out.Open("B", "w")
			b.Broadcast(relation.Value(42))
		}
	})
	m := c.Metrics()
	if m.Rounds() != 1 {
		t.Fatalf("rounds = %d", m.Rounds())
	}
	// Every server receives 1 shifted tuple + 1 broadcast tuple = 2.
	if m.MaxLoad() != 2 {
		t.Fatalf("L = %d, want 2", m.MaxLoad())
	}
	// C = 4 sends + 4 broadcast copies = 8.
	if m.TotalComm() != 8 {
		t.Fatalf("C = %d, want 8", m.TotalComm())
	}
	for i := 0; i < 4; i++ {
		mrel := c.Server(i).Rel("M")
		if mrel == nil || mrel.Len() != 1 {
			t.Fatalf("server %d M = %v", i, mrel)
		}
		want := relation.Value((i + 3) % 4)
		if mrel.Row(0)[0] != want {
			t.Fatalf("server %d got %d, want %d", i, mrel.Row(0)[0], want)
		}
		brel := c.Server(i).Rel("B")
		if brel == nil || brel.Len() != 1 || brel.Row(0)[0] != 42 {
			t.Fatalf("server %d broadcast missing", i)
		}
	}
}

func TestRoundAppendsToExisting(t *testing.T) {
	c := NewCluster(2, 1)
	c.Round("r1", func(s *Server, out *Out) {
		out.Open("A", "x").Send(0, 1)
	})
	c.Round("r2", func(s *Server, out *Out) {
		out.Open("A", "x").Send(0, 2)
	})
	if got := c.Server(0).Rel("A").Len(); got != 4 {
		t.Fatalf("A len = %d, want 4 (2 servers × 2 rounds)", got)
	}
}

func TestRoundArityMismatchPanics(t *testing.T) {
	c := NewCluster(2, 1)
	c.Round("r1", func(s *Server, out *Out) {
		out.Open("A", "x").Send(0, 1)
	})
	c.Round("r2", func(s *Server, out *Out) {
		out.Open("A", "x", "y").Send(0, 1, 2)
	})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), `round "r2" delivers A with attrs [x y] into existing attrs [x]`) {
		t.Fatalf("arity mismatch: Err %v", err)
	}
	if c.Metrics().Rounds() != 1 {
		t.Fatalf("the rejected round was metered: %d rounds", c.Metrics().Rounds())
	}
}

func TestSendArityPanics(t *testing.T) {
	c := NewCluster(2, 1)
	c.Round("bad", func(s *Server, out *Out) {
		out.Open("A", "x").Send(0, 1, 2)
	})
	if err := c.Err(); err == nil || err.Error() != `mpc: round "bad": server 0 panicked: mpc: stream A send arity 2, want 1` {
		t.Fatalf("send arity: Err %v", err)
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	c := NewCluster(2, 1)
	c.Round("bad", func(s *Server, out *Out) {
		out.Open("A", "x").Send(5, 1)
	})
	if err := c.Err(); err == nil || err.Error() != `mpc: round "bad": server 0 panicked: mpc: send to server 5 of 2` {
		t.Fatalf("send out of range: Err %v", err)
	}
}

// TestComputePanicPropagates pins the error texts of a panic in Round
// and in LocalStep: each names the lowest server that panicked, and
// neither meters a round. The workers the panics ran on go on serving
// the rounds of a fresh cluster.
func TestComputePanicPropagates(t *testing.T) {
	boom := func(id int) {
		if id%2 == 1 {
			panic(fmt.Sprintf("bug %d", id))
		}
	}
	for _, tc := range []struct {
		run  func(c *Cluster)
		want string
	}{
		{func(c *Cluster) { c.Round("boom", func(s *Server, _ *Out) { boom(s.ID()) }) }, `mpc: round "boom": server 1 panicked: bug 1`},
		{func(c *Cluster) { c.LocalStep(func(s *Server) { boom(s.ID()) }) }, "mpc: local step: server 1 panicked: bug 1"},
	} {
		c := NewCluster(5, 1)
		tc.run(c)
		if err := c.Err(); err == nil || err.Error() != tc.want {
			t.Errorf("Err %v, want %q", err, tc.want)
		}
		if c.Metrics().Rounds() != 0 {
			t.Errorf("a panicked round was metered")
		}
	}
	c := NewCluster(5, 1)
	c.Round("ok", func(s *Server, out *Out) { out.Open("A", "x").Send(0, relation.Value(s.ID())) })
	if got := c.TotalLen("A"); got != 5 || c.Err() != nil {
		t.Fatalf("the round after the panics delivered %d tuples, want 5 (Err %v)", got, c.Err())
	}
}

func TestLocalStepParallelAndUnmetered(t *testing.T) {
	c := NewCluster(8, 1)
	var ran int64
	c.LocalStep(func(s *Server) {
		atomic.AddInt64(&ran, 1)
		s.Put(relation.FromRows("L", []string{"x"}, [][]relation.Value{{relation.Value(s.ID())}}))
	})
	if ran != 8 {
		t.Fatalf("ran on %d servers", ran)
	}
	if c.Metrics().Rounds() != 0 {
		t.Fatal("local step must not be a round")
	}
	if c.TotalLen("L") != 8 {
		t.Fatalf("L total = %d", c.TotalLen("L"))
	}
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() []relation.Value {
		c := NewCluster(4, 7)
		c.Round("all", func(s *Server, out *Out) {
			st := out.Open("A", "x", "src")
			for i := 0; i < 5; i++ {
				st.Send(0, relation.Value(i), relation.Value(s.ID()))
			}
		})
		r := c.Server(0).Rel("A")
		var flat []relation.Value
		for i := 0; i < r.Len(); i++ {
			flat = append(flat, r.Row(i)...)
		}
		return flat
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic sizes")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order differs at %d", i)
		}
	}
}

func TestGatherMissingPanics(t *testing.T) {
	c := NewCluster(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Gather("nope")
}

func TestMetricsReport(t *testing.T) {
	c := NewCluster(2, 1)
	c.Round("a", func(s *Server, out *Out) {
		out.Open("X", "v").Send(0, 1)
	})
	c.Round("b", func(s *Server, out *Out) {})
	m := c.Metrics()
	if m.Rounds() != 2 {
		t.Fatalf("rounds = %d", m.Rounds())
	}
	if m.MaxLoadOfRound("a") != 2 {
		t.Fatalf("round a load = %d", m.MaxLoadOfRound("a"))
	}
	if m.MaxLoadOfRound("b") != 0 {
		t.Fatalf("round b load = %d", m.MaxLoadOfRound("b"))
	}
	if m.MaxLoadOfRound("zzz") != -1 {
		t.Fatal("missing round should be -1")
	}
	if m.String() == "" {
		t.Fatal("empty report")
	}
	if got := maxRecvWords(m); got != 2 {
		t.Fatalf("words = %d", got)
	}
	c.ResetMetrics()
	if c.Metrics().Rounds() != 0 {
		t.Fatal("reset failed")
	}
}

func TestRelHelpers(t *testing.T) {
	c := NewCluster(2, 1)
	s := c.Server(0)
	if s.Rel("A") != nil {
		t.Fatal("unexpected relation")
	}
	e := s.RelOrEmpty("A", "x")
	if e.Len() != 0 || e.Arity() != 1 {
		t.Fatal("RelOrEmpty wrong")
	}
	s.Put(relation.FromRows("A", []string{"x"}, [][]relation.Value{{1}}))
	if s.RelOrEmpty("A", "x").Len() != 1 {
		t.Fatal("RelOrEmpty should return stored rel")
	}
	names := s.RelNames()
	if len(names) != 1 || names[0] != "A" {
		t.Fatalf("names = %v", names)
	}
	s.Delete("A")
	if s.Rel("A") != nil {
		t.Fatal("delete failed")
	}
	c.DeleteAll("A")
}

// TestPropCommunicationConservation: whatever routing a round uses, the
// sum of per-server received tuples equals the total sent, and the
// union of delivered fragments equals the sent multiset.
func TestPropCommunicationConservation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := NewCluster(2+int(seed%7), seed)
		input := relation.New("in", "k", "v")
		n := 50 + int(seed*37)%200
		for i := 0; i < n; i++ {
			input.Append(relation.Value(i%13), relation.Value(i))
		}
		c.ScatterRoundRobin(input)
		c.Round("scatter", func(s *Server, out *Out) {
			frag := s.Rel("in")
			if frag == nil {
				return
			}
			st := out.Open("out", "k", "v")
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				st.SendRow(s.Rng().Intn(s.P()), row)
			}
		})
		if got := c.Metrics().TotalComm(); got != int64(n) {
			t.Fatalf("seed %d: total comm %d, want %d", seed, got, n)
		}
		if !c.Gather("out").EqualAsSets(input) {
			t.Fatalf("seed %d: routing lost or duplicated tuples", seed)
		}
		var sum int64
		for _, rs := range c.Metrics().RoundStats() {
			sum += rs.TotalRecv()
		}
		if sum != int64(n) {
			t.Fatalf("seed %d: per-round sums %d != %d", seed, sum, n)
		}
	}
}

func TestRoundStatQuantilesAndImbalance(t *testing.T) {
	c := NewCluster(4, 1)
	// Server 0 receives 8 tuples, others 0: imbalance = 8 / 2 = 4.
	c.Round("skewed", func(s *Server, out *Out) {
		if s.ID() == 0 {
			st := out.Open("A", "x")
			for i := 0; i < 8; i++ {
				st.Send(0, relation.Value(i))
			}
		}
	})
	rs := c.Metrics().RoundStats()[0]
	if got := rs.Imbalance(); got != 4 {
		t.Fatalf("imbalance = %g, want 4", got)
	}
	if rs.Quantile(0) != 0 || rs.Quantile(1) != 8 {
		t.Fatalf("quantiles wrong: %d %d", rs.Quantile(0), rs.Quantile(1))
	}
	// Perfectly balanced round: imbalance 1.
	c2 := NewCluster(4, 1)
	c2.Round("flat", func(s *Server, out *Out) {
		out.Open("A", "x").Send(s.ID(), 1)
	})
	if got := c2.Metrics().RoundStats()[0].Imbalance(); got != 1 {
		t.Fatalf("balanced imbalance = %g", got)
	}
	// Empty round: 0.
	c3 := NewCluster(2, 1)
	c3.Round("empty", func(s *Server, out *Out) {})
	if got := c3.Metrics().RoundStats()[0].Imbalance(); got != 0 {
		t.Fatalf("empty imbalance = %g", got)
	}
}

// maxRecvWords is L in words (attribute values): the most any server
// received in one round.
func maxRecvWords(m *Metrics) int64 {
	var l int64
	for _, st := range m.RoundStats() {
		for _, v := range st.RecvWords {
			l = max(l, v)
		}
	}
	return l
}
