package mpc_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/trace"
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
		if compareChaos && !reflect.DeepEqual(as[i].Chaos, bs[i].Chaos) {
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
			if err := chaosC.Err(); err != nil {
				t.Fatalf("bounded-persistence schedule failed recovery: %v", err)
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
// with every transport: under the same fault schedule, the local
// transport on four CPUs and on one, and the row-by-row reference
// transport commit identical fragments, metering, and recovery ledgers.
func TestChaosEngineEquivalence(t *testing.T) {
	sched := chaos.MustParseSchedule("606:drop=0.2,dup=0.1,crash=0.2,straggle=0.3")
	build := func(tr mpc.Transport) *mpc.Cluster {
		c := mpc.NewCluster(6, 9)
		c.SetTransport(tr)
		c.SetFaultInjector(sched)
		recoveryProgram(c, 300)
		return c
	}
	onCPUs := func(n int) *mpc.Cluster {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
		return build(nil)
	}
	fast, single, ref := onCPUs(4), onCPUs(1), build(mpc.ReferenceTransport())
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
	replays := 0
	for _, st := range a.Metrics().RoundStats() {
		if st.Chaos != nil {
			replays += st.Chaos.Replays()
		}
	}
	if replays == 0 {
		t.Fatal("schedule injected no replays; test exercises nothing")
	}
}

// TestChaosEventsMatchLedger compares the two records of a
// fault-injected round that stay separate: the crash and backoff
// events the recovery driver appends while it replays, and the
// ChaosStat the round commits with. Over the golden trace's schedule
// (303:drop=0.1,dup=0.05,crash=0.1, one of testkit.DefaultChaosSpecs),
// the rest of that sweep, and a fault-free run, every round's crash
// events number ChaosStat.Crashes(), its backoff events sum to
// BackoffUnits() and number Replays(), and its chaos summary is present
// exactly when Chaos is non-nil.
func TestChaosEventsMatchLedger(t *testing.T) {
	var crashes, backoffs int
	for _, spec := range append([]string{"fault-free"}, testkit.DefaultChaosSpecs...) {
		for _, p := range []int{2, 5} {
			t.Run(fmt.Sprintf("%s/p%d", spec, p), func(t *testing.T) {
				c := mpc.NewCluster(p, 7)
				if spec != "fault-free" {
					c.SetFaultInjector(chaos.MustParseSchedule(spec))
				}
				rec := trace.NewRecorder()
				c.SetTracer(rec)
				recoveryProgram(c, 300)
				if err := c.Err(); err != nil {
					t.Fatalf("schedule failed recovery: %v", err)
				}
				stats := c.Metrics().RoundStats()
				roundCrashes, roundBackoffs, summaries := make([]int, len(stats)), make([]int, len(stats)), make([]int, len(stats))
				units := make([]int64, len(stats))
				for _, ev := range rec.Events() {
					switch ev.Kind {
					case trace.KindCrash:
						roundCrashes[ev.Round]++
					case trace.KindBackoff:
						roundBackoffs[ev.Round]++
						units[ev.Round] += ev.Units
					case trace.KindChaos:
						summaries[ev.Round]++
					}
				}
				for r, st := range stats {
					cs := st.Chaos
					if cs == nil {
						if summaries[r]+roundCrashes[r]+roundBackoffs[r] != 0 {
							t.Errorf("round %d: fault-free round has %d chaos, %d crash and %d backoff events",
								r, summaries[r], roundCrashes[r], roundBackoffs[r])
						}
						continue
					}
					if summaries[r] != 1 {
						t.Errorf("round %d: %d chaos summaries, want 1", r, summaries[r])
					}
					if roundCrashes[r] != cs.Crashes() {
						t.Errorf("round %d: %d crash events, ledger says %d", r, roundCrashes[r], cs.Crashes())
					}
					if units[r] != cs.BackoffUnits() || roundBackoffs[r] != cs.Replays() {
						t.Errorf("round %d: %d backoff events summing to %d units, ledger shows %d replays and %d units",
							r, roundBackoffs[r], units[r], cs.Replays(), cs.BackoffUnits())
					}
					crashes += roundCrashes[r]
					backoffs += roundBackoffs[r]
				}
			})
		}
	}
	if crashes == 0 || backoffs == 0 {
		t.Errorf("the sweep injected %d crashes and %d replays; it must exercise both", crashes, backoffs)
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
	if err := c.Err(); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	cs := c.Metrics().RoundStats()[0].Chaos
	if cs.Attempts() != 3 || cs.Dropped != 1 || cs.Crashes() != 1 || cs.Redelivered != 3 {
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
	if cs.Attempts() != 1 || cs.Dropped != 0 || cs.Crashes() != 0 {
		t.Fatalf("straggler-only run shows delivery faults: %+v", cs)
	}
	if cs.MaxStraggle() != 15 {
		t.Fatalf("max straggle %d, want 15", cs.MaxStraggle())
	}
	if got := c.Gather("A").Len(); got != 16 {
		t.Fatalf("delivered %d tuples, want 16", got)
	}
}

// TestRecoveryFailurePoisonsCluster drives recovery past its replay
// budget and asserts the failed-cluster invariant: Err is the
// *RecoveryFailure, the ledger ends at the failed round, Round and
// LocalStep run no compute after it, and Gather refuses to read
// possibly-partial state instead of treating lost fragments as empty.
func TestRecoveryFailurePoisonsCluster(t *testing.T) {
	c := mpc.NewCluster(3, 1)
	c.SetFaultInjector(&scriptInjector{
		attempts: 4,
		drop: func(round, attempt, src, dst, si int) bool {
			return src == 1 && dst == 2 // permanent: fires on every attempt
		},
	})
	allToAll(c)
	var fail *mpc.RecoveryFailure
	if !errors.As(c.Err(), &fail) {
		t.Fatalf("Err %v, want *RecoveryFailure", c.Err())
	}
	if fail.Round != 0 || fail.Name != "all" || fail.Attempts != 4 || fail.Lost != 1 || fail.Metrics != c.Metrics() {
		t.Fatalf("failure %+v, want round=0 name=all attempts=4 lost=1 and the cluster's ledger", fail)
	}
	events := len(c.Metrics().Events())
	ran := 0
	c.Round("after", func(*mpc.Server, *mpc.Out) { ran++ })
	c.Shuffle("after", mpc.Send{From: "A", To: "B", Policy: mpc.Broadcast()})
	c.LocalStep(func(*mpc.Server) { ran++ })
	c.Note("after the failure")
	if ran != 0 || c.Err() != fail || c.Metrics().Rounds() != 0 || len(c.Metrics().Events()) != events {
		t.Fatalf("after the failure: %d computes ran, Err %v, %d rounds, %d events (was %d)",
			ran, c.Err(), c.Metrics().Rounds(), len(c.Metrics().Events()), events)
	}
	func() {
		defer func() {
			if msg, ok := recover().(string); !ok || !strings.Contains(msg, "from a failed cluster") || !strings.Contains(msg, fail.Error()) {
				t.Fatalf("Gather on a failed cluster: panic %q does not name the failure", msg)
			}
		}()
		c.Gather("A")
	}()
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
	allToAll(c)
	var fail *mpc.RecoveryFailure
	if !errors.As(c.Err(), &fail) {
		t.Fatal("permanently crashed server did not fail the round")
	}
	if fail.Lost != 3 || len(fail.Crashed()) != 1 || fail.Crashed()[0] != 1 {
		t.Fatalf("failure %+v, want lost=3 crashed=[1]", fail)
	}
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
		if cs == nil || cs.Attempts() != 1 || cs.Dropped != 0 || cs.Duplicated != 0 || cs.Crashes() != 0 {
			t.Fatalf("round %d: zero-rate schedule left a non-trivial ledger: %+v", i, cs)
		}
	}
}
