package testkit

import (
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/trace"
)

// AssertSameLastRound is the differential wall of an algorithm that runs
// in one round when its servers already know what another run's earlier
// rounds compute (the skew joins' heavy hitters): oneRound, which
// metered exactly one round, must have routed exactly as the last round
// of inRound. The two rounds must have the same name and per-server
// (Recv, RecvWords), the same trace events (send, recv, skew and round
// frames; the round index and annotations aside), and every server must
// hold bit-identical fragments afterwards.
func AssertSameLastRound(t *testing.T, inRound, oneRound *mpc.Cluster) {
	t.Helper()
	if n := oneRound.Metrics().Rounds(); n != 1 {
		t.Fatalf("the one-round run metered %d rounds", n)
	}
	last := inRound.Metrics().Rounds() - 1
	want, got := inRound.Metrics().RoundStats()[last], oneRound.Metrics().RoundStats()[0]
	if want.Name != got.Name {
		t.Fatalf("round name %q, in-round run's last round %q", got.Name, want.Name)
	}
	for d := range want.Recv {
		if want.Recv[d] != got.Recv[d] || want.RecvWords[d] != got.RecvWords[d] {
			t.Fatalf("server %d received (%d,%d), in-round run's last round (%d,%d)",
				d, got.Recv[d], got.RecvWords[d], want.Recv[d], want.RecvWords[d])
		}
	}
	we, ge := roundEvents(inRound, last), roundEvents(oneRound, 0)
	if len(we) != len(ge) {
		t.Fatalf("trace: %d events for the round, in-round run %d", len(ge), len(we))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("trace event %d differs:\n  in-round:  %+v\n  one-round: %+v", i, we[i], ge[i])
		}
	}
	AssertSameFragments(t, inRound, oneRound)
}

// roundEvents returns the events c's ledger draws for the given round,
// excluded, renumbered to round 0.
func roundEvents(c *mpc.Cluster, round int) []trace.Event {
	var evs []trace.Event
	for _, ev := range c.Metrics().Events() {
		if ev.Round == round && ev.Kind != trace.KindAnnotate {
			ev.Round = 0
			evs = append(evs, ev)
		}
	}
	return evs
}
