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

// TestRoundEvents pins what roundEvents renders from a RoundStat: the
// event order, the skew summary (total, words, busy servers, max,
// nearest-rank p99, Gini) and the round_end frame, on an unbalanced
// round, an idle one, and a fault-injected one.
func TestRoundEvents(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		st := &RoundStat{
			Name: "shuffle", Recv: []int64{0, 0, 10}, RecvWords: []int64{0, 0, 20},
			StreamSends: []StreamLoad{{Stream: "out:R", Server: 1, Tuples: 10, Words: 20}},
			StreamRecvs: []StreamLoad{{Stream: "out:R", Server: 2, Tuples: 10, Words: 20, Frags: 1}},
		}
		got := fmt.Sprint(eventKinds(roundEvents(0, st)))
		if want := fmt.Sprint([]string{trace.KindSend, trace.KindRecv, trace.KindSkew, trace.KindRoundEnd}); got != want {
			t.Errorf("kinds %s, want %s", got, want)
		}
		st.Chaos = &ChaosStat{Attempts: 3, Dropped: 5, Duplicated: 2, Crashes: 1, BackoffUnits: 6}
		evs := roundEvents(0, st)
		got = fmt.Sprint(eventKinds(evs))
		if want := fmt.Sprint([]string{trace.KindSend, trace.KindRecv, trace.KindChaos, trace.KindSkew, trace.KindRoundEnd}); got != want {
			t.Errorf("fault-injected kinds %s, want %s", got, want)
		}
		if c := evs[2]; c.Attempt != 3 || c.Dropped != 5 || c.Duplicated != 2 || c.Crashes != 1 || c.Units != 6 {
			t.Errorf("chaos event %+v does not mirror the ledger %+v", c, st.Chaos)
		}
		if r := evs[1]; r.Server != 2 || r.Name != "out:R" || r.Tuples != 10 || r.Words != 20 || r.Frags != 1 {
			t.Errorf("recv event %+v", r)
		}
	})
	t.Run("skew", func(t *testing.T) {
		// Three servers: loads 30, 10, 0 — max 30, total 40, two active.
		evs := roundEvents(3, &RoundStat{Name: "x", Recv: []int64{30, 10, 0}, RecvWords: []int64{60, 20, 0}})
		if len(evs) != 2 {
			t.Fatalf("got %d events, want skew + round_end", len(evs))
		}
		skew, end := evs[0], evs[1]
		if skew.Kind != trace.KindSkew || end.Kind != trace.KindRoundEnd {
			t.Fatalf("kinds %q, %q", skew.Kind, end.Kind)
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
		skew := roundEvents(0, &RoundStat{Name: "idle", Recv: []int64{0, 0}, RecvWords: []int64{0, 0}})[0]
		if skew.MaxRecv != 0 || skew.P99Recv != 0 || skew.Gini != 0 || skew.Frags != 0 {
			t.Errorf("all-zero round skew %+v, want all zeros", skew)
		}
	})
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

// FuzzRoundEvents runs a fuzzed multi-round program — p, the streams
// each source opens and in what order, and how many tuples each sends
// each destination, empty streams and arity 0 included — on a traced
// cluster, and checks the trace against the ledger and against the
// program: one round_start and one round_end per round, named as its
// RoundStat; the round's events in order; recv events summing to
// Recv/RecvWords slot by slot, and to what the program sent; the send
// total equal to the recv total; the skew event equal to
// MaxRecv/P99Recv/GiniRecv; and the whole trace surviving a JSONL
// round trip.
func FuzzRoundEvents(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 0, 1, 2, 3, 1, 2, 0, 3, 2, 1, 1, 2, 2, 2})
	f.Add(uint8(0), []byte{2, 1, 0, 3})
	f.Add(uint8(5), []byte{})
	f.Add(uint8(4), []byte{2, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, pb uint8, prog []byte) {
		p := 1 + int(pb%6)
		if len(prog) > 512 {
			prog = prog[:512]
		}
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
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
		rec := trace.NewRecorder()
		c.SetTracer(rec)
		for r := range plan {
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
		}

		stats := c.Metrics().RoundStats()
		if len(stats) != rounds {
			t.Fatalf("%d rounds metered, program ran %d", len(stats), rounds)
		}
		evs := rec.Events()
		phase := map[string]int{trace.KindRoundStart: 0, trace.KindSend: 1, trace.KindRecv: 2, trace.KindSkew: 3, trace.KindRoundEnd: 4}
		at := 0
		for r := range stats {
			st := &stats[r]
			recv, words := make([]int64, p), make([]int64, p)
			var sent int64
			var starts, ends int
			var skew *trace.Event
			last := -1
			for ; at < len(evs) && evs[at].Round == r; at++ {
				ev := evs[at]
				ph, ok := phase[ev.Kind]
				if !ok || ph < last || (ph == last && (ph == 0 || ph >= 3)) {
					t.Fatalf("round %d: event %+v out of order", r, ev)
				}
				last = ph
				switch ev.Kind {
				case trace.KindRoundStart:
					starts++
					if ev.Name != st.Name {
						t.Errorf("round %d: round_start %q, RoundStat %q", r, ev.Name, st.Name)
					}
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
