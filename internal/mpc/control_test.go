package mpc

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// sizes is an exchange's words function summing the fragment sizes of
// the named relations, one word each.
func sizes(names ...string) func(s *Server, w []int64) {
	return func(s *Server, w []int64) {
		for i, n := range names {
			w[i] += int64(s.Len(n))
		}
	}
}

// TestExchangeMetersControlApartFromRounds pins what an exchange
// records: the sums, the words per server, whether it took a control
// step, each drawn as an exchange event before the next round, and
// none of it in (L, r, C).
func TestExchangeMetersControlApartFromRounds(t *testing.T) {
	c := NewCluster(3, 1)
	r := relation.New("R", "a")
	for i := range relation.Value(10) {
		r.Append(i)
	}
	c.ScatterRoundRobin(r)
	if got := c.Exchange("sizes", 2, false, sizes("R", "absent")); !slices.Equal(got, []int64{10, 0}) {
		t.Fatalf("Exchange summed %v, want [10 0]", got)
	}
	c.Shuffle("spread", Send{From: "R", To: "S", Policy: Hash(1, "a")})
	loads := c.Loads("count", Send{From: "S", To: "T", Policy: Broadcast()})
	if !slices.Equal(loads, []int64{10, 10, 10}) {
		t.Fatalf("Loads counted %v, want 10 per server", loads)
	}
	m := c.Metrics()
	if m.Rounds() != 1 || m.TotalComm() != 10 || m.ControlSteps() != 1 || m.ControlWords() != 2+3 {
		t.Fatalf("r %d, C %d, r_ctl %d, control words %d; want 1, 10, 1, 5", m.Rounds(), m.TotalComm(), m.ControlSteps(), m.ControlWords())
	}
	var got []trace.Event
	for _, ev := range m.Events() {
		if ev.Kind == trace.KindExchange {
			got = append(got, ev)
		}
	}
	want := []trace.Event{
		{Kind: trace.KindExchange, Round: 0, Server: trace.Driver, Name: "sizes", Tuples: 10, Words: 2},
		{Kind: trace.KindExchange, Round: 1, Server: trace.Driver, Name: "count", Tuples: 30, Words: 3, Units: 1},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("drew exchanges %+v, want %+v", got, want)
	}
}

// choices returns the choose events m draws: its decisions'
// candidates.
func choices(m *Metrics) []trace.Event {
	var evs []trace.Event
	for _, ev := range m.Events() {
		if ev.Kind == trace.KindChoose {
			evs = append(evs, ev)
		}
	}
	return evs
}

// TestChoosePicksLowestLThenC pins Choose's rule and its record: the
// lowest counted L wins, then the lowest C, and a tie goes to the first
// candidate; each candidate's counted (L, C) is what Loads counts.
func TestChoosePicksLowestLThenC(t *testing.T) {
	c := NewCluster(4, 1)
	r := relation.New("R", "a", "b")
	for i := range relation.Value(12) {
		r.Append(i, i%3)
	}
	c.ScatterRoundRobin(r)
	spread := []Send{{From: "R", To: "x", Policy: Hash(7, "a")}}
	bcast := []Send{{From: "R", To: "y", Policy: Broadcast()}}
	for _, tc := range []struct {
		cands [][]Send
		pick  int
	}{
		{[][]Send{bcast, spread}, 1},
		{[][]Send{spread, spread}, 0}, // a tie keeps the first
		{[][]Send{bcast, bcast, spread}, 2},
	} {
		c.ResetMetrics()
		if got := c.Choose("pick", tc.cands...); got != tc.pick {
			t.Fatalf("Choose picked %d, want %d", got, tc.pick)
		}
		cands := choices(c.Metrics())
		if len(cands) != len(tc.cands) {
			t.Fatalf("drew candidates %+v", cands)
		}
		for i, sends := range tc.cands {
			var l, sum int64
			for _, n := range c.Loads("check", sends...) {
				l, sum = max(l, n), sum+n
			}
			want := trace.Event{Kind: trace.KindChoose, Server: trace.Driver, Name: "pick", Attempt: i, MaxRecv: l, Tuples: sum}
			if i == tc.pick {
				want.Frags = 1
			}
			if cands[i] != want {
				t.Fatalf("candidate %d drawn as %+v, want %+v", i, cands[i], want)
			}
		}
		if c.Metrics().Rounds() != 0 {
			t.Fatal("Choose ran a round")
		}
	}
	// L decides before C: all of K hashes to one server (L 12, C 12),
	// while Q's broadcast puts 4 on each (L 4, C 16).
	k, q := relation.New("K", "b"), relation.New("Q", "b")
	for i := range relation.Value(12) {
		k.Append(0)
		if i < 4 {
			q.Append(i)
		}
	}
	c.ScatterRoundRobin(k)
	c.ScatterRoundRobin(q)
	c.ResetMetrics()
	one := []Send{{From: "K", To: "x", Policy: Hash(7, "b")}}
	if got := c.Choose("pick", one, []Send{{From: "Q", To: "y", Policy: Broadcast()}}); got != 1 {
		t.Fatalf("Choose picked %d, not the lower L: %+v", got, choices(c.Metrics()))
	}
}

// TestExchangeOnFailedClusterRecordsNothing: after a round fails, the
// ledger ends there, so an exchange sums to zeros (a vote to halt), a
// Choose keeps its first candidate, and neither records anything.
func TestExchangeOnFailedClusterRecordsNothing(t *testing.T) {
	c := NewCluster(2, 1)
	c.ScatterRoundRobin(relation.New("R", "a"))
	c.Round("boom", func(s *Server, out *Out) { panic("boom") })
	if c.Err() == nil {
		t.Fatal("the round did not fail")
	}
	before := c.Metrics().Events()
	if got := c.Exchange("sizes", 1, false, func(*Server, []int64) { t.Fatal("a failed cluster counted") }); !slices.Equal(got, []int64{0}) {
		t.Fatalf("Exchange on a failed cluster returned %v", got)
	}
	if got := c.Choose("pick", nil, []Send{{From: "R", To: "x", Policy: Broadcast()}}); got != 0 {
		t.Fatalf("Choose on a failed cluster picked %d", got)
	}
	if m := c.Metrics(); m.ControlSteps() != 0 || m.ControlWords() != 0 || len(m.Events()) != len(before) {
		t.Fatalf("a failed cluster recorded control: r_ctl %d, words %d, events %v", m.ControlSteps(), m.ControlWords(), m.Events()[len(before):])
	}
	var f *RecoveryFailure
	if errors.As(c.Err(), &f) {
		t.Fatal("a compute panic is not a recovery failure")
	}
}

// TestWarmExchangeAllocsIndependentOfP is an exact allocation wall: n
// exchanges on a cluster of p servers allocate no more than appending n
// records and their words to the ledger does, whatever p, so a vote per
// iteration costs a fixpoint nothing beyond the ledger's amortized
// append.
func TestWarmExchangeAllocsIndependentOfP(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{64, 4096} {
		ledger := testing.AllocsPerRun(5, func() {
			var notes []note
			var ctl []int64
			for i := 0; i < n; i++ {
				notes = append(notes, note{})
				ctl = append(ctl, 0)
			}
		})
		for _, p := range []int{1, 8, 64} {
			c := NewCluster(p, 1)
			c.ScatterRoundRobin(relation.New("d", "a"))
			vote := sizes("d")
			got := testing.AllocsPerRun(5, func() {
				c.ResetMetrics()
				for i := 0; i < n; i++ {
					c.Exchange("d", 1, false, vote)
				}
			})
			// ResetMetrics allocates the fresh ledger itself.
			if got > ledger+1 {
				t.Errorf("p %d: %d exchanges allocate %v times, the ledger's appends %v", p, n, got, ledger)
			}
		}
	}
}
