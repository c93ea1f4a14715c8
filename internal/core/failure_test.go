package core

import (
	"errors"
	"net"
	"runtime"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/mpcnet"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
	"mpcquery/internal/workload"
)

// loseRound is a fault schedule that drops every fragment of round k
// and allows one delivery attempt, so round k fails recovery whatever
// it sends, and every round before it commits untouched.
type loseRound struct{ k int }

func (loseRound) StragglerUnits(round, server int) int64    { return 0 }
func (loseRound) CrashedAt(round, attempt, server int) bool { return false }
func (l loseRound) FragmentFate(round, attempt, src, dst, streamIdx int) mpc.FaultFate {
	if round == l.k {
		return mpc.FateDrop
	}
	return mpc.FateDeliver
}
func (loseRound) MaxAttempts() int               { return 1 }
func (loseRound) BackoffUnits(attempt int) int64 { return 1 }

// heavyTriangle is a triangle instance whose z = 0 is heavy: every y
// meets it in S and every x in T, so each round of hl-triangle, light
// and heavy, has traffic. Every R row closes one triangle.
func heavyTriangle() map[string]*relation.Relation {
	r, s, t := relation.New("R", "x", "y"), relation.New("S", "y", "z"), relation.New("T", "z", "x")
	for i := relation.Value(0); i < 20; i++ {
		r.Append(i, i*7%20)
		s.Append(i, 0)
		t.Append(0, i)
	}
	return map[string]*relation.Relation{"R": r, "S": s, "T": t}
}

// TestFailureAtEveryRound is the wall behind the sticky round error:
// every registered algorithm, on every query shape it applies to, and
// the aggregate and fixpoint entry points lose round k for each k below
// their fault-free r.
func TestFailureAtEveryRound(t *testing.T) {
	for _, q := range []hypergraph.Query{
		hypergraph.TwoWayJoin(), hypergraph.Triangle(), hypergraph.Path(3),
		hypergraph.Star(3), hypergraph.Cycle(4),
	} {
		rels := setInstance(q, 1)
		if q.Name == hypergraph.Triangle().Name {
			rels = heavyTriangle()
		}
		for _, d := range Registry() {
			if d.Applies(q) != nil {
				continue
			}
			req := Request{Query: q, Relations: rels, Algorithm: Algorithm(d.Alg)}
			loseEveryRound(t, d.Alg+" on "+q.Name, func(e *Engine) (*Execution, error) { return e.Execute(req) })
		}
	}
	req := Request{Query: hypergraph.Path(3), Relations: setInstance(hypergraph.Path(3), 1)}
	spec := AggregateSpec{GroupBy: hypergraph.Path(3).Vars()[:1], Fn: relation.Count, OutAttr: "n"}
	loseEveryRound(t, "aggregate on path3", func(e *Engine) (*Execution, error) { return e.ExecuteAggregate(req, spec) })
	edges := workload.RandomGraph("E", "src", "dst", 20, 40, 1)
	for _, kind := range []RecursiveKind{RecTransitiveClosure, RecReachable, RecConnectedComponents} {
		req := RecursiveRequest{Kind: kind, Edges: edges, Sources: []relation.Value{0, 1}}
		loseEveryRound(t, "fixpoint "+string(kind), func(e *Engine) (*Execution, error) { return e.ExecuteRecursive(req) })
	}
}

// loseEveryRound runs run on a fault-free engine, then once per round k
// of that run on an engine that loses round k. Each failing run must
// return a *mpc.RecoveryFailure for round k and no Execution, its
// ledger must end at round k, and it must start no goroutine: the
// fault-free run is the warm-up.
func loseEveryRound(t *testing.T, name string, run func(e *Engine) (*Execution, error)) {
	t.Helper()
	const p, seed = 4, 1
	clean, err := run(NewEngine(p, seed))
	if err != nil {
		t.Fatalf("%s, fault-free: %v", name, err)
	}
	for k := 0; k < clean.Rounds; k++ {
		if clean.Metrics.RoundStats()[k].TotalRecv() == 0 {
			t.Fatalf("%s: fault-free round %d sends nothing, so no fault can lose it", name, k)
		}
		e := NewEngine(p, seed)
		e.Chaos = loseRound{k}
		before := runtime.NumGoroutine()
		ex, err := run(e)
		after := runtime.NumGoroutine()
		var f *mpc.RecoveryFailure
		switch {
		case !errors.As(err, &f) || f.Round != k:
			t.Fatalf("%s losing round %d: error %v", name, k, err)
		case ex != nil:
			t.Fatalf("%s losing round %d: an Execution came with the error", name, k)
		case f.Metrics.Rounds() != k:
			t.Fatalf("%s losing round %d: %d rounds committed", name, k, f.Metrics.Rounds())
		case after > before:
			t.Fatalf("%s losing round %d: %d goroutines before, %d after", name, k, before, after)
		}
		evs := f.Metrics.Events()
		if last := evs[len(evs)-1]; last.Round != k || last.Kind != trace.KindRoundStart {
			t.Fatalf("%s losing round %d: the ledger ends at %+v", name, k, last)
		}
	}
}

// TestTransportFailureIsAnError: a transport whose Deliver errors, and
// a closed loopback TCP transport, fail the run with an error that
// wraps the transport's, and no Execution; nothing panics.
func TestTransportFailureIsAnError(t *testing.T) {
	errWire := errors.New("wire unplugged")
	closed, err := mpcnet.NewLoopback(4, mpcnet.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	req := triangleRequest(20, 100, 1)
	for _, tc := range []struct {
		name string
		tr   mpc.Transport
		want error
	}{
		{"deliver-errors", failingTransport{errWire}, errWire},
		{"closed-loopback", closed, net.ErrClosed},
	} {
		e := NewEngine(4, 1)
		e.Transport = tc.tr
		ex, err := e.Execute(req)
		if !errors.Is(err, tc.want) || ex != nil {
			t.Errorf("%s: Execute returned %v and Execution %v, want an error wrapping %v", tc.name, err, ex, tc.want)
		}
	}
}

// failingTransport fails every delivery with err.
type failingTransport struct{ err error }

func (f failingTransport) Deliver(*mpc.RoundView) error { return f.err }
func (failingTransport) Close() error                   { return nil }
