package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/recursive"
	"mpcquery/internal/testkit"
	"mpcquery/internal/trace"
	"mpcquery/internal/workload"
)

// assertSinkDrawsLedger asserts that rec, attached to c before its
// first round, recorded exactly what c's ledger draws after the run,
// and returns those events.
func assertSinkDrawsLedger(t *testing.T, c *mpc.Cluster, rec *trace.Recorder) []trace.Event {
	t.Helper()
	live, drawn := rec.Events(), c.Metrics().Events()
	if len(live) == 0 {
		t.Fatal("the run recorded no events")
	}
	if !bytes.Equal(trace.MarshalJSONL(live), trace.MarshalJSONL(drawn)) {
		for i := 0; i < len(live) && i < len(drawn); i++ {
			if live[i] != drawn[i] {
				t.Fatalf("event %d: live recorder got %+v, the ledger draws %+v", i, live[i], drawn[i])
			}
		}
		t.Fatalf("live recorder got %d events, the ledger draws %d", len(live), len(drawn))
	}
	return live
}

// TestLiveSinkDrawsTheLedger is the wall behind the one renderer: a
// recorder attached with SetTracer receives exactly what
// Metrics.Events draws from the cluster's ledger after the run. It
// covers every registered algorithm (with the engine's plan note) on
// the local and loopback-TCP backends, fault-free and under a chaos
// schedule, gym-opt's decision among them; the adaptive switch; the
// semi-naive fixpoint's votes; and a round whose recovery failed, whose
// crashes and backoffs are still drawn.
func TestLiveSinkDrawsTheLedger(t *testing.T) {
	const p, seed = 5, 3
	backends := []struct {
		name string
		new  func(t *testing.T, p int, seed int64) *mpc.Cluster
	}{
		{"local", func(_ *testing.T, p int, seed int64) *mpc.Cluster { return mpc.NewCluster(p, seed) }},
		{"tcp", testkit.NewTCPCluster},
	}
	schedules := []string{"fault-free", testkit.DefaultChaosSpecs[2]}
	traced := func(t *testing.T, backend int, spec string) (*mpc.Cluster, *trace.Recorder) {
		c := backends[backend].new(t, p, seed)
		if spec != "fault-free" {
			c.SetFaultInjector(chaos.MustParseSchedule(spec))
		}
		rec := trace.NewRecorder()
		c.SetTracer(rec)
		return c, rec
	}

	e := NewEngine(p, seed)
	var crashes, backoffs int // drawn by the chaos runs of the registry sweep
	picks := 0                // decisions drawn by the sweep's gym-opt runs
	for _, q := range []hypergraph.Query{hypergraph.Triangle(), hypergraph.Path(3), hypergraph.TwoWayJoin()} {
		rels := testkit.GenInstance(q, testkit.SkewHeavy, testkit.GenConfig{Tuples: 150}, seed)
		for _, alg := range applicable(q) {
			for b := range backends {
				for _, spec := range schedules {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", q.Name, alg, backends[b].name, spec), func(t *testing.T) {
						c, rec := traced(t, b, spec)
						ex := &Execution{Algorithm: alg, Reason: "forced by request"}
						if _, err := e.join(c, ex, Request{Query: q, Relations: rels, Algorithm: alg}, nil); err != nil {
							t.Fatal(err)
						}
						for _, ev := range assertSinkDrawsLedger(t, c, rec) {
							switch ev.Kind {
							case trace.KindCrash:
								crashes++
							case trace.KindBackoff:
								backoffs++
							case trace.KindChoose:
								picks += ev.Frags
							}
						}
					})
				}
			}
		}
	}

	if crashes == 0 || backoffs == 0 {
		t.Errorf("the chaos runs drew %d crashes and %d backoffs; the sweep must exercise both", crashes, backoffs)
	}
	if picks == 0 {
		t.Error("the sweep drew no decision; gym-opt on path3 must choose its join phase")
	}

	t.Run("adaptive", func(t *testing.T) {
		// The count shows imbalance only on a cluster large against the
		// heavy value's slab (see hypercube's adaptiveCfg).
		q := hypergraph.Triangle()
		c, rec := mpc.NewCluster(16, 1), trace.NewRecorder()
		c.SetTracer(rec)
		rels := testkit.GenMispredicted(q, testkit.GenConfig{Tuples: 480, HeavyFrac: 0.5}, 1)
		res, err := hypercube.RunAdaptive(c, q, rels, "out", 1)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for _, ev := range assertSinkDrawsLedger(t, c, rec) {
			if ev.Kind == trace.KindExchange {
				steps += int(ev.Units)
			}
		}
		if !res.Switched || steps != 1 {
			t.Fatalf("switched %v after %d control steps; the instance must switch on its one count", res.Switched, steps)
		}
	})

	edges := workload.RandomGraph("E", "src", "dst", 20, 50, seed)
	for _, spec := range []string{"fault-free", testkit.DefaultChaosSpecs[1]} {
		t.Run("fixpoint/"+spec, func(t *testing.T) {
			c, rec := traced(t, 0, spec)
			res, err := recursive.TransitiveClosure(c, edges, "out", seed)
			if err != nil {
				t.Fatal(err)
			}
			notes, votes := 0, 0
			for _, ev := range assertSinkDrawsLedger(t, c, rec) {
				switch {
				case ev.Kind == trace.KindAnnotate:
					notes++
				case ev.Kind == trace.KindExchange && ev.Units == 0:
					votes++
				}
			}
			if notes != 1 || votes != res.Iterations+1 || c.Metrics().ControlSteps() != 0 {
				t.Fatalf("%d notes and %d votes for %d iterations: want a vote before each and one after the last, riding its barrier, and a note at convergence",
					notes, votes, res.Iterations)
			}
		})
	}

	t.Run("failed recovery", func(t *testing.T) {
		c, rec := traced(t, 0, "5:drop=0.3,crash=0.3,attempts=2")
		if _, err := e.join(c, &Execution{Algorithm: AlgGYM}, Request{Query: hypergraph.Path(3),
			Relations: testkit.GenInstance(hypergraph.Path(3), testkit.SkewNone, testkit.GenConfig{Tuples: 150}, seed)}, nil); err != nil {
			t.Fatal(err)
		}
		var failure *mpc.RecoveryFailure
		if !errors.As(c.Err(), &failure) || failure.Metrics != c.Metrics() {
			t.Fatalf("the schedule must exhaust its replay budget, got Err %v", c.Err())
		}
		evs := assertSinkDrawsLedger(t, c, rec)
		down := 0
		for i := len(evs) - 1; i >= 0 && evs[i].Round == failure.Round; i-- {
			switch evs[i].Kind {
			case trace.KindCrash:
				down++
			case trace.KindRoundStart:
				if down == 0 {
					t.Error("the failed round draws no crash")
				}
				return
			case trace.KindBackoff:
			default:
				t.Fatalf("the failed round draws %+v", evs[i])
			}
		}
		t.Fatal("the failed round draws no round_start")
	})
}
