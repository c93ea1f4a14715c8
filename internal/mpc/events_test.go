package mpc

import (
	"bytes"
	"fmt"
	"testing"

	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

func eventKinds(evs []trace.Event) []string {
	kinds := make([]string, len(evs))
	for i, ev := range evs {
		kinds[i] = ev.Kind
	}
	return kinds
}

// roundEvents draws st as round `round` of a ledger, alone.
func roundEvents(round int, st *RoundStat) []trace.Event {
	m := &Metrics{stats: make([]RoundStat, round+1)}
	m.stats[round] = *st
	evs, _ := m.draw(mark{rounds: round})
	return evs
}

// TestRoundEvents pins what the renderer draws from a RoundStat: the
// event order, the attempt log of a fault-injected round, the skew
// summary (total, words, busy servers, max, nearest-rank p99, Gini)
// and the round frames, on an unbalanced round, an idle one, and a
// fault-injected one.
func TestRoundEvents(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		st := &RoundStat{
			Name: "shuffle", Recv: []int64{0, 0, 10}, RecvWords: []int64{0, 0, 20},
			StreamSends: []StreamLoad{{Stream: "out:R", Server: 1, Tuples: 10, Words: 20}},
			StreamRecvs: []StreamLoad{{Stream: "out:R", Server: 2, Tuples: 10, Words: 20, Frags: 1}},
		}
		got := fmt.Sprint(eventKinds(roundEvents(0, st)))
		if want := fmt.Sprint([]string{trace.KindRoundStart, trace.KindSend, trace.KindRecv, trace.KindSkew, trace.KindRoundEnd}); got != want {
			t.Errorf("kinds %s, want %s", got, want)
		}
		st.Chaos = &ChaosStat{Dropped: 5, Duplicated: 2,
			Log: []AttemptLog{{Down: []int{1}}, {Backoff: 2}, {Backoff: 4, Down: []int{0, 1}}}}
		evs := roundEvents(0, st)
		got = fmt.Sprint(eventKinds(evs))
		if want := fmt.Sprint([]string{trace.KindRoundStart, trace.KindCrash, trace.KindBackoff, trace.KindBackoff, trace.KindCrash, trace.KindCrash,
			trace.KindSend, trace.KindRecv, trace.KindChaos, trace.KindSkew, trace.KindRoundEnd}); got != want {
			t.Errorf("fault-injected kinds %s, want %s", got, want)
		}
		for i, want := range []trace.Event{
			{Kind: trace.KindCrash, Server: 1},
			{Kind: trace.KindBackoff, Server: trace.Driver, Attempt: 1, Units: 2},
			{Kind: trace.KindBackoff, Server: trace.Driver, Attempt: 2, Units: 4},
			{Kind: trace.KindCrash, Server: 0, Attempt: 2},
			{Kind: trace.KindCrash, Server: 1, Attempt: 2},
		} {
			if evs[1+i] != want {
				t.Errorf("attempt log event %d = %+v, want %+v", i, evs[1+i], want)
			}
		}
		if c := evs[8]; c.Attempt != 3 || c.Dropped != 5 || c.Duplicated != 2 || c.Crashes != 3 || c.Units != 6 {
			t.Errorf("chaos event %+v does not mirror the ledger %+v", c, st.Chaos)
		}
		if r := evs[7]; r.Server != 2 || r.Name != "out:R" || r.Tuples != 10 || r.Words != 20 || r.Frags != 1 {
			t.Errorf("recv event %+v", r)
		}
	})
	t.Run("skew", func(t *testing.T) {
		// Three servers: loads 30, 10, 0 — max 30, total 40, two active.
		evs := roundEvents(3, &RoundStat{Name: "x", Recv: []int64{30, 10, 0}, RecvWords: []int64{60, 20, 0}})
		if len(evs) != 3 {
			t.Fatalf("got %d events, want round_start + skew + round_end", len(evs))
		}
		start, skew, end := evs[0], evs[1], evs[2]
		if start.Kind != trace.KindRoundStart || skew.Kind != trace.KindSkew || end.Kind != trace.KindRoundEnd {
			t.Fatalf("kinds %q, %q, %q", start.Kind, skew.Kind, end.Kind)
		}
		if start.Round != 3 || start.Name != "x" || start.Server != trace.Driver {
			t.Errorf("round_start event %+v", start)
		}
		if skew.Tuples != 40 || skew.Words != 80 || skew.MaxRecv != 30 || skew.Frags != 2 {
			t.Errorf("skew event %+v: want total 40, words 80, max 30, 2 active servers", skew)
		}
		if skew.P99Recv != 30 {
			t.Errorf("P99Recv = %d, want 30 (nearest-rank p99 on 3 servers is the max)", skew.P99Recv)
		}
		if skew.Gini <= 0 || skew.Gini >= 1 {
			t.Errorf("Gini = %v, want in (0, 1) for an unbalanced round", skew.Gini)
		}
		if end.Round != 3 || end.Name != "x" || end.Tuples != 40 || end.Words != 80 || end.MaxRecv != 30 {
			t.Errorf("round_end event %+v", end)
		}
	})
	t.Run("idle", func(t *testing.T) {
		skew := roundEvents(0, &RoundStat{Name: "idle", Recv: []int64{0, 0}, RecvWords: []int64{0, 0}})[1]
		if skew.MaxRecv != 0 || skew.P99Recv != 0 || skew.Gini != 0 || skew.Frags != 0 {
			t.Errorf("all-zero round skew %+v, want all zeros", skew)
		}
	})
}

// TestNotesAndFailedRound pins where the renderer draws the driver's
// notes — each before the round it precedes, an exchange and a
// decision among them, the notes after the last round at the end — and
// that a failed round draws its round_start and attempt log only.
func TestNotesAndFailedRound(t *testing.T) {
	idle := RoundStat{Recv: []int64{0}, RecvWords: []int64{0}}
	m := NewMetrics(1)
	m.notes = []note{
		{rounds: 0, format: "plan %s", args: []any{"q"}},
		{rounds: 0, format: "100%% literal"},
		{rounds: 1, kind: exchangeNote, format: "sizes", at: 0, k: 2},
		{rounds: 1, kind: decisionNote, format: "grid or ship", at: 2, k: 4, pick: 1},
		{rounds: 1, format: "switch after %d", args: []any{0}},
	}
	m.ctl = []int64{3, 4, 9, 20, 7, 25}
	m.stats = []RoundStat{idle}
	m.stats[0].Name = "r0"
	m.failed = &RoundStat{Name: "r1", Chaos: &ChaosStat{
		Log: []AttemptLog{{}, {Backoff: 3, Down: []int{0}}}}}
	want := []trace.Event{
		{Kind: trace.KindAnnotate, Round: 0, Server: trace.Driver, Name: "plan q"},
		{Kind: trace.KindAnnotate, Round: 0, Server: trace.Driver, Name: "100% literal"},
		{Kind: trace.KindRoundStart, Round: 0, Server: trace.Driver, Name: "r0"},
		{Kind: trace.KindSkew, Round: 0, Server: trace.Driver},
		{Kind: trace.KindRoundEnd, Round: 0, Server: trace.Driver, Name: "r0"},
		{Kind: trace.KindExchange, Round: 1, Server: trace.Driver, Name: "sizes", Tuples: 7, Words: 2},
		{Kind: trace.KindChoose, Round: 1, Server: trace.Driver, Name: "grid or ship", MaxRecv: 9, Tuples: 20},
		{Kind: trace.KindChoose, Round: 1, Server: trace.Driver, Name: "grid or ship", Attempt: 1, MaxRecv: 7, Tuples: 25, Frags: 1},
		{Kind: trace.KindAnnotate, Round: 1, Server: trace.Driver, Name: "switch after 0"},
		{Kind: trace.KindRoundStart, Round: 1, Server: trace.Driver, Name: "r1"},
		{Kind: trace.KindBackoff, Round: 1, Server: trace.Driver, Attempt: 1, Units: 3},
		{Kind: trace.KindCrash, Round: 1, Server: 0, Attempt: 1},
	}
	got := m.Events()
	if len(got) != len(want) {
		t.Fatalf("drew %d events %v, want %d", len(got), eventKinds(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Drawn in pieces as it grew, the ledger draws the same stream.
	m.failed = nil
	m.notes = append(m.notes, note{rounds: 1, format: "done"})
	whole := m.Events()
	head, at := m.draw(mark{})
	if len(head) != len(whole) || at != m.end() {
		t.Fatalf("draw from the start gave %d events to %+v, Events %d to %+v", len(head), at, len(whole), m.end())
	}
	for cut := 0; cut <= len(m.notes); cut++ {
		// The ledger as it stood just before note cut was made.
		rounds := len(m.stats)
		if cut < len(m.notes) {
			rounds = m.notes[cut].rounds
		}
		part := &Metrics{p: 1, stats: m.stats[:rounds], notes: m.notes[:cut], ctl: m.ctl}
		evs, at := part.draw(mark{})
		rest, _ := m.draw(at)
		if joined := append(evs, rest...); fmt.Sprint(joined) != fmt.Sprint(whole) {
			t.Errorf("cut after %d notes: drew %v, want %v", cut, eventKinds(joined), eventKinds(whole))
		}
	}
}

// fuzzSend is one (stream, destination, count) entry of a fuzzed
// round program.
type fuzzSend struct{ stream, dst, n int }

// fuzzStreams are the streams a fuzzed program may open: one per
// arity 0–2, and a second arity-2 stream, so a source can open several
// streams and sources can open them in different orders.
var fuzzStreams = []struct {
	name  string
	attrs []string
}{{"z", nil}, {"u", []string{"a"}}, {"b", []string{"a", "b"}}, {"c", []string{"a", "b"}}}

// fuzzFaults is a FaultInjector scripted by a fuzz input: down[r][a]
// is the bitmask of servers down during attempt a of round r, and
// drop[r][a] loses every fragment in transit then.
type fuzzFaults struct {
	down     [][fuzzAttempts]uint8
	drop     [][fuzzAttempts]bool
	attempts int
}

const fuzzAttempts = 4 // the largest replay budget a fuzzed schedule gets

func (f *fuzzFaults) StragglerUnits(round, server int) int64 { return 0 }
func (f *fuzzFaults) CrashedAt(round, attempt, server int) bool {
	return f.down[round][attempt]>>server&1 == 1
}
func (f *fuzzFaults) FragmentFate(round, attempt, src, dst, si int) FaultFate {
	if f.drop[round][attempt] {
		return FateDrop
	}
	return FateDeliver
}
func (f *fuzzFaults) MaxAttempts() int               { return f.attempts }
func (f *fuzzFaults) BackoffUnits(attempt int) int64 { return int64(3 * attempt) }

// FuzzRoundEvents runs a fuzzed multi-round program — p, the streams
// each source opens and in what order, how many tuples each sends each
// destination (empty streams and arity 0 included), the notes and
// decisions made between rounds (notesProg), and, when faults is
// non-empty, a fault schedule whose crashes and drops force replays
// and may exhaust the replay budget — on a cluster with a live recorder. It
// checks that the recorder got exactly what the renderer draws from
// the ledger after the run, and the trace against the ledger and the
// program: each note before the round it precedes, a decision drawn
// as its control step's exchange and then its two candidates, the pick
// the lower (L, C), the first on a tie; per round one round_start, then the attempt log (each
// attempt's backoff, then its crashes, as the ChaosStat logged them),
// then send, recv, chaos, skew and round_end, named as its RoundStat;
// recv events summing to Recv/RecvWords slot by slot, and to what the
// program sent; the send total equal to the recv total; the skew event
// equal to MaxRecv/P99Recv/GiniRecv; a failed round drawing its
// round_start and attempt log only, last; and the whole trace surviving
// a JSONL round trip.
func FuzzRoundEvents(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 0, 1, 2, 3, 1, 2, 0, 3, 2, 1, 1, 2, 2, 2}, []byte{}, []byte{})
	f.Add(uint8(0), []byte{2, 1, 0, 3}, []byte{}, []byte{})
	f.Add(uint8(5), []byte{}, []byte{}, []byte{})
	f.Add(uint8(4), []byte{2, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1}, []byte{}, []byte{})
	f.Add(uint8(3), []byte{1, 2, 0, 1, 2, 3, 1, 2, 0, 3, 2, 1, 1, 2, 2, 2, 2, 1, 4, 2, 5}, []byte{3, 2, 0, 1, 5, 0, 0, 0, 4, 1, 0, 0}, []byte{2, 1, 1, 2, 0, 1, 1, 0})
	f.Add(uint8(2), []byte{2, 3, 1, 2, 1, 1, 2, 2, 3, 1, 2, 2, 1, 0, 4}, []byte{1, 3, 5, 1, 0, 0}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, pb uint8, prog, faults, notesProg []byte) {
		p := 1 + int(pb%6)
		if len(prog) > 512 {
			prog = prog[:512]
		}
		take := func(b *[]byte) int {
			if len(*b) == 0 {
				return 0
			}
			v := (*b)[0]
			*b = (*b)[1:]
			return int(v)
		}
		next := func() int { return take(&prog) }
		rounds := 1 + next()%3
		plan := make([][][]fuzzSend, rounds) // plan[round][src]
		wantRecv := make([][]int64, rounds)
		wantWords := make([][]int64, rounds)
		for r := range plan {
			plan[r] = make([][]fuzzSend, p)
			wantRecv[r], wantWords[r] = make([]int64, p), make([]int64, p)
			for src := range plan[r] {
				k, first := next()%(len(fuzzStreams)+1), next()
				for j := 0; j < k; j++ {
					stream := (first + j) % len(fuzzStreams)
					for dst := 0; dst < p; dst++ {
						n := next() % 3
						plan[r][src] = append(plan[r][src], fuzzSend{stream, dst, n})
						wantRecv[r][dst] += int64(n)
						wantWords[r][dst] += int64(n * len(fuzzStreams[stream].attrs))
					}
				}
			}
		}

		c := NewCluster(p, 1)
		if len(faults) > 0 {
			inj := &fuzzFaults{attempts: 1 + take(&faults)%fuzzAttempts,
				down: make([][fuzzAttempts]uint8, rounds), drop: make([][fuzzAttempts]bool, rounds)}
			for r := 0; r < rounds; r++ {
				for a := 0; a < fuzzAttempts; a++ {
					inj.down[r][a], inj.drop[r][a] = uint8(take(&faults)), take(&faults)%4 == 1
				}
			}
			c.SetFaultInjector(inj)
		}
		rec := trace.NewRecorder()
		c.SetTracer(rec)
		// notes makes the notes due before round r (r = rounds: after
		// the last) and returns how many it made.
		notes := func(r int) int {
			k := take(&notesProg) % 3
			for j := 0; j < k; j++ {
				if r > 0 && take(&notesProg)%3 == 0 {
					c.Choose(fmt.Sprintf("choose %d.%d", r, j),
						[]Send{{From: "b", To: "x", Policy: Broadcast()}},
						[]Send{{From: "c", To: "y", Policy: Hash(1, "a")}, {From: "u", To: "v", Policy: Hash(2, "a")}})
				} else {
					c.Note("note %d.%d %v", r, j, []int{r, j})
				}
			}
			return k
		}
		noted := make([]int, rounds+1)
		failedAt := -1
		for r := range plan {
			noted[r] = notes(r)
			c.Round(fmt.Sprintf("r%d", r), func(s *Server, out *Out) {
				for _, sd := range plan[r][s.ID()] {
					fs := fuzzStreams[sd.stream]
					st := out.Open(fs.name, fs.attrs...)
					row := make([]relation.Value, len(fs.attrs))
					for i := 0; i < sd.n; i++ {
						for j := range row {
							row[j] = relation.Value(s.ID()*1000 + i*10 + j)
						}
						st.SendRow(sd.dst, row)
					}
				}
			})
			if err := c.Err(); err != nil {
				if failure, ok := err.(*RecoveryFailure); !ok || failure.Round != r || failure.Metrics != c.Metrics() {
					t.Fatalf("round %d failed as %v", r, err)
				}
				failedAt = r
				break
			}
		}
		if failedAt < 0 {
			noted[rounds] = notes(rounds)
		} else {
			c.Note("after the failure") // a failed cluster's ledger ends at its failed round
		}

		evs := rec.Events()
		drawn := c.Metrics().Events()
		if len(evs) != len(drawn) {
			t.Fatalf("live recorder got %d events, the ledger draws %d", len(evs), len(drawn))
		}
		for i := range evs {
			if evs[i] != drawn[i] {
				t.Fatalf("event %d: live recorder got %+v, the ledger draws %+v", i, evs[i], drawn[i])
			}
		}

		stats := c.Metrics().RoundStats()
		ran, committed := rounds, rounds
		if failedAt >= 0 {
			ran, committed = failedAt+1, failedAt
		}
		if len(stats) != committed {
			t.Fatalf("%d rounds metered, program committed %d", len(stats), committed)
		}
		phase := map[string]int{trace.KindRoundStart: 0, trace.KindBackoff: 1, trace.KindCrash: 1, trace.KindSend: 2, trace.KindRecv: 3,
			trace.KindChaos: 4, trace.KindSkew: 5, trace.KindRoundEnd: 6}
		at := 0
		checkNotes := func(r int) {
			for j := 0; j < noted[r]; j, at = j+1, at+1 {
				if at == len(evs) {
					t.Fatalf("before round %d: trace ends at note %d of %d", r, j, noted[r])
				}
				switch ev := evs[at]; {
				case ev.Kind == trace.KindAnnotate && ev.Round == r && ev.Name == fmt.Sprintf("note %d.%d [%d %d]", r, j, r, j):
				case ev.Kind == trace.KindExchange && ev.Round == r && ev.Name == fmt.Sprintf("choose %d.%d", r, j) &&
					ev.Words == int64(2*p) && ev.Units == 1 && at+2 < len(evs):
					a, b := evs[at+1], evs[at+2]
					for i, cand := range []trace.Event{a, b} {
						if cand.Kind != trace.KindChoose || cand.Round != r || cand.Name != ev.Name || cand.Attempt != i {
							t.Fatalf("before round %d: candidate %d of %+v is %+v", r, i, ev, cand)
						}
					}
					bWins := b.MaxRecv < a.MaxRecv || b.MaxRecv == a.MaxRecv && b.Tuples < a.Tuples
					if a.Tuples+b.Tuples != ev.Tuples || a.Frags+b.Frags != 1 || bWins != (b.Frags == 1) {
						t.Fatalf("before round %d: exchange %+v chose between %+v and %+v", r, ev, a, b)
					}
					at += 2
				default:
					t.Fatalf("before round %d: event %+v is not note %d", r, ev, j)
				}
			}
		}
		for r := 0; r < ran; r++ {
			checkNotes(r)
			failed := r == failedAt
			var st *RoundStat
			var cs *ChaosStat
			if failed {
				st, cs = c.Metrics().failed, c.Metrics().failed.Chaos
			} else {
				st, cs = &stats[r], stats[r].Chaos
			}
			recv, words := make([]int64, p), make([]int64, p)
			var sent int64
			var starts, ends, backoffs, crashes int
			var units int64
			var skew *trace.Event
			last, attempt := -1, 0
			for ; at < len(evs) && evs[at].Round == r && evs[at].Kind != trace.KindAnnotate && evs[at].Kind != trace.KindExchange; at++ {
				ev := evs[at]
				ph, ok := phase[ev.Kind]
				if !ok || ph < last || (ph == last && (ph == 0 || ph >= 4)) {
					t.Fatalf("round %d: event %+v out of order", r, ev)
				}
				last = ph
				switch ev.Kind {
				case trace.KindRoundStart:
					starts++
					if ev.Name != st.Name {
						t.Errorf("round %d: round_start %q, RoundStat %q", r, ev.Name, st.Name)
					}
				case trace.KindBackoff:
					attempt++
					if ev.Attempt != attempt || cs == nil || attempt >= len(cs.Log) || ev.Units != cs.Log[attempt].Backoff {
						t.Fatalf("round %d: backoff %+v out of step with attempt %d of the log", r, ev, attempt)
					}
					backoffs++
					units += ev.Units
				case trace.KindCrash:
					if ev.Attempt != attempt || cs == nil {
						t.Fatalf("round %d: crash %+v during attempt %d", r, ev, attempt)
					}
					crashes++
				case trace.KindRoundEnd:
					ends++
					if ev.Name != st.Name || ev.Tuples != st.TotalRecv() || ev.MaxRecv != st.MaxRecv() {
						t.Errorf("round %d: round_end %+v, RoundStat %q total %d max %d", r, ev, st.Name, st.TotalRecv(), st.MaxRecv())
					}
				case trace.KindSend:
					sent += ev.Tuples
				case trace.KindRecv:
					recv[ev.Server] += ev.Tuples
					words[ev.Server] += ev.Words
				case trace.KindSkew:
					skew = &evs[at]
				}
			}
			if cs != nil && (crashes != cs.Crashes() || backoffs != cs.Replays() || units != cs.BackoffUnits()) {
				t.Errorf("round %d: %d crash and %d backoff events (%d units), ledger %+v", r, crashes, backoffs, units, cs)
			}
			if failed {
				if starts != 1 || last > 1 || cs == nil || cs.Attempts() != c.Err().(*RecoveryFailure).Attempts {
					t.Fatalf("failed round %d: %d round_start events, last phase %d, attempt log %+v, failure %v", r, starts, last, cs, c.Err())
				}
				break
			}
			if starts != 1 || ends != 1 || skew == nil {
				t.Fatalf("round %d: %d round_start and %d round_end events, skew event %v; want one each", r, starts, ends, skew)
			}
			var total int64
			for d := 0; d < p; d++ {
				if recv[d] != st.Recv[d] || words[d] != st.RecvWords[d] {
					t.Errorf("round %d server %d: recv events (%d, %d), RoundStat (%d, %d)", r, d, recv[d], words[d], st.Recv[d], st.RecvWords[d])
				}
				if recv[d] != wantRecv[r][d] || words[d] != wantWords[r][d] {
					t.Errorf("round %d server %d: recv events (%d, %d), program sent (%d, %d)", r, d, recv[d], words[d], wantRecv[r][d], wantWords[r][d])
				}
				total += recv[d]
			}
			if sent != total {
				t.Errorf("round %d: send total %d, recv total %d", r, sent, total)
			}
			if skew.MaxRecv != st.MaxRecv() || skew.P99Recv != st.P99Recv() || skew.Gini != st.GiniRecv() || skew.Tuples != total {
				t.Errorf("round %d: skew %+v, RoundStat max %d p99 %d gini %v total %d", r, skew, st.MaxRecv(), st.P99Recv(), st.GiniRecv(), total)
			}
		}
		if failedAt < 0 {
			checkNotes(rounds)
		}
		if at != len(evs) {
			t.Errorf("%d events after the last round", len(evs)-at)
		}

		parsed, err := trace.ReadJSONL(bytes.NewReader(trace.MarshalJSONL(evs)))
		if err != nil {
			t.Fatalf("JSONL round trip: %v", err)
		}
		if len(parsed) != len(evs) {
			t.Fatalf("JSONL round trip: %d events back, wrote %d", len(parsed), len(evs))
		}
		for i := range evs {
			if parsed[i] != evs[i] {
				t.Fatalf("JSONL round trip: event %d = %+v, want %+v", i, parsed[i], evs[i])
			}
		}
	})
}
