package testkit

import (
	"bytes"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/trace"
)

// AssertTraceConsistent cross-checks a trace against the cluster's
// metric window: the trace is only trustworthy as an observability
// artifact if it reconciles *exactly* with the (L, r, C) accounting the
// whole repository is built around. The recorder must have been
// attached before the cluster ran any rounds. Asserted, per round:
//
//   - exactly one round_start and one round_end, with matching labels;
//   - per-server recv totals (summed over streams) equal RoundStat.Recv
//     and RoundStat.RecvWords slot for slot;
//   - send totals equal recv totals (every tuple sent is received);
//   - the skew event equals MaxRecv/P99Recv/GiniRecv and counts the
//     active servers;
//   - the chaos summary event is present iff the round ran under fault
//     injection, and mirrors the RoundStat.Chaos ledger, with matching
//     crash-event and backoff-unit tallies;
//
// and, across rounds: round count r, max load L, and total
// communication C derived from the trace equal the Metrics values.
func AssertTraceConsistent(t *testing.T, c *mpc.Cluster, rec *trace.Recorder) {
	t.Helper()
	AssertTraceMatchesMetrics(t, c.Metrics(), rec)
}

// AssertTraceMatchesMetrics is AssertTraceConsistent for callers that
// hold the ledger but not the cluster (a core.Execution's Metrics): rec
// must have recorded every round of m, and nothing else.
func AssertTraceMatchesMetrics(t *testing.T, m *mpc.Metrics, rec *trace.Recorder) {
	t.Helper()
	if rec == nil {
		t.Fatalf("trace: AssertTraceMatchesMetrics needs a recorder")
	}
	rounds := m.RoundStats()
	events := rec.Events()

	type roundAgg struct {
		starts, ends   int
		startName      string
		endName        string
		sendTuples     int64
		recvTuples     map[int]int64
		recvWords      map[int]int64
		skew           *trace.Event
		chaos          *trace.Event
		crashes        int
		backoffUnits   int64
		backoffEvents  int
		recvEventCount int
	}
	aggs := map[int]*roundAgg{}
	get := func(r int) *roundAgg {
		a := aggs[r]
		if a == nil {
			a = &roundAgg{recvTuples: map[int]int64{}, recvWords: map[int]int64{}}
			aggs[r] = a
		}
		return a
	}
	for i := range events {
		ev := events[i]
		a := get(ev.Round)
		switch ev.Kind {
		case trace.KindRoundStart:
			a.starts++
			a.startName = ev.Name
		case trace.KindRoundEnd:
			a.ends++
			a.endName = ev.Name
		case trace.KindSend:
			a.sendTuples += ev.Tuples
		case trace.KindRecv:
			a.recvTuples[ev.Server] += ev.Tuples
			a.recvWords[ev.Server] += ev.Words
			a.recvEventCount++
		case trace.KindSkew:
			ev := ev
			a.skew = &ev
		case trace.KindChaos:
			ev := ev
			a.chaos = &ev
		case trace.KindCrash:
			a.crashes++
		case trace.KindBackoff:
			a.backoffUnits += ev.Units
			a.backoffEvents++
		}
	}

	totalStarts := 0
	for _, a := range aggs {
		totalStarts += a.starts
	}
	if totalStarts != len(rounds) {
		t.Errorf("trace: %d round_start events, metrics metered %d rounds", totalStarts, len(rounds))
	}

	var traceMaxLoad, traceTotalComm int64
	for r := range rounds {
		st := &rounds[r]
		a := aggs[r]
		if a == nil || a.starts != 1 || a.ends != 1 {
			t.Errorf("trace: round %d: want exactly one round_start and round_end, got %+v", r, a)
			continue
		}
		if a.startName != st.Name || a.endName != st.Name {
			t.Errorf("trace: round %d: labels start=%q end=%q, metrics say %q", r, a.startName, a.endName, st.Name)
		}
		var total int64
		var roundMax int64
		for srv, want := range st.Recv {
			got := a.recvTuples[srv]
			if got != want {
				t.Errorf("trace: round %d server %d: recv tuples %d, RoundStat.Recv %d", r, srv, got, want)
			}
			if gotW, wantW := a.recvWords[srv], st.RecvWords[srv]; gotW != wantW {
				t.Errorf("trace: round %d server %d: recv words %d, RoundStat.RecvWords %d", r, srv, gotW, wantW)
			}
			total += got
			if got > roundMax {
				roundMax = got
			}
		}
		for srv := range a.recvTuples {
			if srv < 0 || srv >= len(st.Recv) {
				t.Errorf("trace: round %d: recv event for out-of-range server %d", r, srv)
			}
		}
		if a.sendTuples != total {
			t.Errorf("trace: round %d: send total %d ≠ recv total %d", r, a.sendTuples, total)
		}
		if total != st.TotalRecv() {
			t.Errorf("trace: round %d: recv total %d, RoundStat total %d", r, total, st.TotalRecv())
		}
		if roundMax > traceMaxLoad {
			traceMaxLoad = roundMax
		}
		traceTotalComm += total
		if a.skew == nil {
			t.Errorf("trace: round %d: no skew event", r)
		} else {
			active := 0
			for _, v := range st.Recv {
				if v > 0 {
					active++
				}
			}
			if a.skew.MaxRecv != st.MaxRecv() || a.skew.P99Recv != st.P99Recv() ||
				a.skew.Gini != st.GiniRecv() || a.skew.Frags != active ||
				a.skew.Tuples != st.TotalRecv() {
				t.Errorf("trace: round %d: skew event %+v, RoundStat max=%d p99=%d gini=%v active=%d total=%d",
					r, a.skew, st.MaxRecv(), st.P99Recv(), st.GiniRecv(), active, st.TotalRecv())
			}
		}
		if cs := st.Chaos; cs == nil {
			if a.chaos != nil {
				t.Errorf("trace: round %d: chaos summary event on a fault-free round", r)
			}
		} else if a.chaos == nil {
			t.Errorf("trace: round %d: fault-injected round has no chaos summary event", r)
		} else {
			if a.chaos.Attempt != cs.Attempts || a.chaos.Dropped != cs.Dropped ||
				a.chaos.Duplicated != cs.Duplicated || a.chaos.Redelivered != cs.Redelivered ||
				a.chaos.Crashes != cs.Crashes || a.chaos.Units != cs.BackoffUnits {
				t.Errorf("trace: round %d: chaos summary %+v ≠ ledger %+v", r, a.chaos, cs)
			}
			if a.crashes != cs.Crashes {
				t.Errorf("trace: round %d: %d crash events, ledger says %d", r, a.crashes, cs.Crashes)
			}
			if a.backoffUnits != cs.BackoffUnits {
				t.Errorf("trace: round %d: backoff events sum to %d units, ledger says %d", r, a.backoffUnits, cs.BackoffUnits)
			}
			if a.backoffEvents != cs.Replays() {
				t.Errorf("trace: round %d: %d backoff events, ledger shows %d replays", r, a.backoffEvents, cs.Replays())
			}
		}
	}
	if traceMaxLoad != m.MaxLoad() {
		t.Errorf("trace: derived L = %d, Metrics.MaxLoad = %d", traceMaxLoad, m.MaxLoad())
	}
	if traceTotalComm != m.TotalComm() {
		t.Errorf("trace: derived C = %d, Metrics.TotalComm = %d", traceTotalComm, m.TotalComm())
	}

	// The export path must accept every trace the simulator records:
	// encode and parse back, asserting exactness event-for-event.
	parsed, err := trace.ReadJSONL(bytes.NewReader(trace.MarshalJSONL(events)))
	if err != nil {
		t.Errorf("trace: JSONL round-trip parse: %v", err)
	} else if len(parsed) != len(events) {
		t.Errorf("trace: JSONL round-trip: %d events back, wrote %d", len(parsed), len(events))
	} else {
		for i := range events {
			if parsed[i] != events[i] {
				t.Errorf("trace: JSONL round-trip: event %d = %+v, want %+v", i, parsed[i], events[i])
				break
			}
		}
	}
}
