package mpc_test

import (
	"strings"
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// recoveryProgram is the multi-round communication program the recovery
// suite replays on every engine/schedule combination: hash partition,
// RNG re-route with an arity-0 control stream, and a sampled broadcast.
func recoveryProgram(c *mpc.Cluster, tuples int) {
	input := relation.New("R", "x", "y")
	for i := 0; i < tuples; i++ {
		input.Append(int64(i%17), int64(i))
	}
	c.ScatterRoundRobin(input)
	c.Round("partition", func(s *mpc.Server, out *mpc.Out) {
		frag := s.RelOrEmpty("R", "x", "y")
		st := out.Open("H", "x", "y")
		for i := 0; i < frag.Len(); i++ {
			row := frag.Row(i)
			st.SendRow(relation.Bucket(relation.HashRow(row, []int{0}, 42), s.P()), row)
		}
	})
	c.Round("reroute", func(s *mpc.Server, out *mpc.Out) {
		frag := s.RelOrEmpty("H", "x", "y")
		st := out.Open("G", "x", "y")
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
		out.Open("S", "x", "y").Broadcast(frag.Row(s.Rng().Intn(frag.Len()))...)
	})
}

// assertSameRun asserts two clusters metered identical Recv/RecvWords
// per round and hold bit-for-bit identical fragments for the program's
// relations.
func assertSameRun(t *testing.T, a, b *mpc.Cluster, compareChaos bool) {
	t.Helper()
	as, bs := a.Metrics().RoundStats(), b.Metrics().RoundStats()
	if len(as) != len(bs) {
		t.Fatalf("rounds %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i].Name != bs[i].Name {
			t.Fatalf("round %d: %q vs %q", i, as[i].Name, bs[i].Name)
		}
		for d := 0; d < a.P(); d++ {
			if as[i].Recv[d] != bs[i].Recv[d] || as[i].RecvWords[d] != bs[i].RecvWords[d] {
				t.Fatalf("round %q server %d: (%d,%d) vs (%d,%d)", as[i].Name, d,
					as[i].Recv[d], as[i].RecvWords[d], bs[i].Recv[d], bs[i].RecvWords[d])
			}
		}
		if compareChaos && !as[i].Chaos.Equal(bs[i].Chaos) {
			t.Fatalf("round %q: chaos ledgers differ: %+v vs %+v", as[i].Name, as[i].Chaos, bs[i].Chaos)
		}
	}
	for _, name := range []string{"H", "G", "S", "done"} {
		ra, rb := a.Gather(name), b.Gather(name)
		if ra.Len() != rb.Len() {
			t.Fatalf("%s: %d vs %d tuples", name, ra.Len(), rb.Len())
		}
		for i := 0; i < ra.Len(); i++ {
			xa, xb := ra.Row(i), rb.Row(i)
			for j := range xa {
				if xa[j] != xb[j] {
					t.Fatalf("%s row %d: %v vs %v", name, i, xa, xb)
				}
			}
		}
	}
}

// TestChaosCommitMatchesFaultFree is the tentpole guarantee: a run that
// recovers from drops, duplicates, crashes and stragglers commits the
// exact state and (L, r, C) metering of the fault-free run, with the
// recovery activity ledgered separately.
func TestChaosCommitMatchesFaultFree(t *testing.T) {
	for _, spec := range []string{
		"101:drop=0.2",
		"202:dup=0.15",
		"303:crash=0.25",
		"404:straggle=0.4,delay=6",
		"505:drop=0.15,dup=0.1,crash=0.15,straggle=0.2",
	} {
		t.Run(spec, func(t *testing.T) {
			clean := mpc.NewCluster(5, 7)
			recoveryProgram(clean, 300)

			chaosC := mpc.NewCluster(5, 7)
			chaosC.SetFaultInjector(chaos.MustParseSchedule(spec))
			recoveryProgram(chaosC, 300)
			if chaosC.Failed() != nil {
				t.Fatalf("bounded-persistence schedule failed recovery: %v", chaosC.Failed())
			}
			assertSameRun(t, clean, chaosC, false)
			for i, st := range chaosC.Metrics().RoundStats() {
				if st.Chaos == nil {
					t.Fatalf("round %d has no chaos ledger despite attached injector", i)
				}
			}
		})
	}
}

// TestChaosEngineEquivalence pins that the recovery driver composes
// with every transport: under the same fault schedule, the concurrent
// local transport, the single-worker local transport, and the
// row-by-row reference transport commit identical fragments, metering,
// and recovery ledgers.
func TestChaosEngineEquivalence(t *testing.T) {
	sched := chaos.MustParseSchedule("606:drop=0.2,dup=0.1,crash=0.2,straggle=0.3")
	build := func(configure func(*mpc.Cluster)) *mpc.Cluster {
		c := mpc.NewCluster(6, 9)
		configure(c)
		c.SetFaultInjector(sched)
		recoveryProgram(c, 300)
		return c
	}
	fast := build(func(c *mpc.Cluster) { c.SetTransport(mpc.LocalTransportWorkers(4)) })
	single := build(func(c *mpc.Cluster) { c.SetTransport(mpc.LocalTransportWorkers(1)) })
	ref := build(func(c *mpc.Cluster) { c.SetTransport(mpc.ReferenceTransport()) })
	assertSameRun(t, fast, single, true)
	assertSameRun(t, fast, ref, true)
}

// TestDeterministicReplay pins the repro contract printed by
// chaos.Report: re-running with the same spec reproduces the whole run
// — faults, replays, backoff, metering, and output — bit for bit.
func TestDeterministicReplay(t *testing.T) {
	run := func() *mpc.Cluster {
		c := mpc.NewCluster(5, 3)
		c.SetFaultInjector(chaos.MustParseSchedule("777:drop=0.25,dup=0.1,crash=0.2,straggle=0.3"))
		recoveryProgram(c, 250)
		return c
	}
	a, b := run(), run()
	assertSameRun(t, a, b, true)
	if a.Metrics().String() != b.Metrics().String() {
		t.Fatalf("metric reports differ between identical replays:\n%s\nvs\n%s", a.Metrics(), b.Metrics())
	}
	if a.Metrics().TotalReplays() == 0 {
		t.Fatal("schedule injected no replays; test exercises nothing")
	}
}

// scriptInjector is a precise, hand-scripted FaultInjector for driving
// the recovery driver through exact fault sequences.
type scriptInjector struct {
	drop     func(round, attempt, src, dst, si int) bool
	crash    func(round, attempt, server int) bool
	straggle func(round, server int) int64
	attempts int
}

func (s *scriptInjector) StragglerUnits(round, server int) int64 {
	if s.straggle == nil {
		return 0
	}
	return s.straggle(round, server)
}

func (s *scriptInjector) CrashedAt(round, attempt, server int) bool {
	return s.crash != nil && s.crash(round, attempt, server)
}

func (s *scriptInjector) FragmentFate(round, attempt, src, dst, si int) mpc.FaultFate {
	if s.drop != nil && s.drop(round, attempt, src, dst, si) {
		return mpc.FateDrop
	}
	return mpc.FateDeliver
}

func (s *scriptInjector) MaxAttempts() int { return s.attempts }

func (s *scriptInjector) BackoffUnits(attempt int) int64 { return 1 }

// allToAll runs one round in which every server sends one tuple to
// every server, producing p² fragments.
func allToAll(c *mpc.Cluster) {
	c.Round("all", func(s *mpc.Server, out *mpc.Out) {
		st := out.Open("A", "v")
		for dst := 0; dst < s.P(); dst++ {
			st.Send(dst, int64(s.ID()))
		}
	})
}

// TestCrashRedelivery scripts the crash-recovery path exactly: a drop
// forces a second attempt, a crash on that attempt wipes one server's
// landed fragments, and the third attempt redelivers them.
func TestCrashRedelivery(t *testing.T) {
	c := mpc.NewCluster(3, 1)
	c.SetFaultInjector(&scriptInjector{
		attempts: 8,
		drop: func(round, attempt, src, dst, si int) bool {
			return attempt == 0 && src == 0 && dst == 0
		},
		crash: func(round, attempt, server int) bool {
			return attempt == 1 && server == 2
		},
	})
	allToAll(c)
	if c.Failed() != nil {
		t.Fatalf("recovery failed: %v", c.Failed())
	}
	cs := c.Metrics().RoundStats()[0].Chaos
	if cs.Attempts != 3 || cs.Dropped != 1 || cs.Crashes != 1 || cs.Redelivered != 3 {
		t.Fatalf("ledger %+v, want attempts=3 dropped=1 crashes=1 redelivered=3", cs)
	}
	if got := c.Gather("A").Len(); got != 9 {
		t.Fatalf("delivered %d tuples, want 9 (exactly once)", got)
	}
}

// TestStragglerMetering pins that stragglers are metered — not slept —
// and change nothing about delivery.
func TestStragglerMetering(t *testing.T) {
	c := mpc.NewCluster(4, 1)
	c.SetFaultInjector(&scriptInjector{
		attempts: 2,
		straggle: func(round, server int) int64 { return int64(server) * 5 },
	})
	allToAll(c)
	cs := c.Metrics().RoundStats()[0].Chaos
	if cs.Attempts != 1 || cs.Dropped != 0 || cs.Crashes != 0 {
		t.Fatalf("straggler-only run shows delivery faults: %+v", cs)
	}
	if cs.MaxStraggle() != 15 || c.Metrics().MaxStraggleUnits() != 15 {
		t.Fatalf("max straggle %d / %d, want 15", cs.MaxStraggle(), c.Metrics().MaxStraggleUnits())
	}
	if got := c.Gather("A").Len(); got != 16 {
		t.Fatalf("delivered %d tuples, want 16", got)
	}
}

// TestRecoveryFailurePoisonsCluster drives recovery past its replay
// budget and asserts the loud-failure contract: Round panics with a
// *RecoveryFailure, and every subsequent read of possibly-partial state
// panics too instead of treating lost fragments as empty (the silent
// Gather/TotalLen bug this PR fixes).
func TestRecoveryFailurePoisonsCluster(t *testing.T) {
	c := mpc.NewCluster(3, 1)
	c.SetFaultInjector(&scriptInjector{
		attempts: 4,
		drop: func(round, attempt, src, dst, si int) bool {
			return src == 1 && dst == 2 // permanent: fires on every attempt
		},
	})
	func() {
		defer func() {
			r := recover()
			fail, ok := r.(*mpc.RecoveryFailure)
			if !ok {
				t.Fatalf("Round panicked with %v, want *RecoveryFailure", r)
			}
			if fail.Round != 0 || fail.Name != "all" || fail.Attempts != 4 || fail.Lost != 1 {
				t.Fatalf("failure %+v, want round=0 name=all attempts=4 lost=1", fail)
			}
		}()
		allToAll(c)
		t.Fatal("Round with a permanent drop did not panic")
	}()
	if c.Failed() == nil {
		t.Fatal("Failed() nil after a failed recovery")
	}
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"Gather", func() { c.Gather("A") }},
		{"TotalLen", func() { c.TotalLen("A") }},
		{"MaxFragLen", func() { c.MaxFragLen("A") }},
		{"Round", func() { allToAll(c) }},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s on a poisoned cluster did not panic", op.name)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "unrecovered fault") {
					t.Fatalf("%s panic %v does not name the unrecovered fault", op.name, r)
				}
			}()
			op.fn()
		}()
	}
}

// TestPermanentCrashFailure exercises the failure path through the
// crash rather than the drop mechanism and checks the downed server is
// named in the failure.
func TestPermanentCrashFailure(t *testing.T) {
	c := mpc.NewCluster(3, 1)
	c.SetFaultInjector(&scriptInjector{
		attempts: 3,
		crash:    func(round, attempt, server int) bool { return server == 1 },
	})
	defer func() {
		fail, ok := recover().(*mpc.RecoveryFailure)
		if !ok {
			t.Fatal("permanently crashed server did not fail the round")
		}
		if fail.Lost != 3 || len(fail.Crashed) != 1 || fail.Crashed[0] != 1 {
			t.Fatalf("failure %+v, want lost=3 crashed=[1]", fail)
		}
	}()
	allToAll(c)
}

// TestChaosZeroRateSchedulesAreTransparent pins that an attached
// schedule with all-zero rates behaves exactly like no injector: one
// attempt, empty ledger counters, identical commit.
func TestChaosZeroRateSchedulesAreTransparent(t *testing.T) {
	clean := mpc.NewCluster(4, 5)
	recoveryProgram(clean, 200)
	c := mpc.NewCluster(4, 5)
	c.SetFaultInjector(chaos.MustParseSchedule("12345"))
	recoveryProgram(c, 200)
	assertSameRun(t, clean, c, false)
	for i, st := range c.Metrics().RoundStats() {
		cs := st.Chaos
		if cs == nil || cs.Attempts != 1 || cs.Dropped != 0 || cs.Duplicated != 0 || cs.Crashes != 0 {
			t.Fatalf("round %d: zero-rate schedule left a non-trivial ledger: %+v", i, cs)
		}
	}
}
