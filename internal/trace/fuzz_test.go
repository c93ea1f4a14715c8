package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzTraceRoundTrip holds the JSONL codec to its exactness contract:
// for any event the recorder could conceivably hold, parsing the
// encoding yields the identical event. Strings are sanitized to valid
// UTF-8 and floats to finite values — json.Marshal substitutes both
// (replacement runes, encode errors), and the recorder never produces
// them, so the contract is scoped to representable events.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add("send", 0, 3, "out:R", int64(7), int64(14), 2, 0, int64(0), int64(7), int64(7), 0.25, int64(0), int64(0), int64(0), 0)
	f.Add("round_end", 12, -1, "hypercube:shuffle", int64(4096), int64(8192), 0, 0, int64(0), int64(512), int64(0), 0.0, int64(0), int64(0), int64(0), 0)
	f.Add("chaos", 3, -1, "", int64(0), int64(0), 0, 4, int64(9), int64(0), int64(0), 0.0, int64(5), int64(2), int64(1), 3)
	f.Add("annotate", 0, -1, "phase: ünïcode & <html> \"quotes\"", int64(0), int64(0), 0, 0, int64(0), int64(0), int64(0), 0.0, int64(0), int64(0), int64(0), 0)
	f.Add("exchange", 2, -1, "adaptive:loads", int64(1536), int64(16), 0, 0, int64(1), int64(0), int64(0), 0.0, int64(0), int64(0), int64(0), 0)
	f.Add("choose", 4, -1, "yannakakis join phase: HyperCube or ship to the anchor", int64(9120), int64(0), 1, 1, int64(0), int64(1140), int64(0), 0.0, int64(0), int64(0), int64(0), 0)
	f.Add("", -1, math.MinInt, "\x00\n\t", int64(math.MinInt64), int64(math.MaxInt64), math.MaxInt, -1, int64(-1), int64(-1), int64(-1), math.Inf(1), int64(-1), int64(-1), int64(-1), -1)
	f.Fuzz(func(t *testing.T, kind string, round, server int, name string,
		tuples, words int64, frags, attempt int, units, maxRecv, p99 int64, gini float64,
		dropped, duplicated, redelivered int64, crashes int) {
		if math.IsNaN(gini) || math.IsInf(gini, 0) {
			gini = 0
		}
		ev := Event{
			Kind: strings.ToValidUTF8(kind, "�"), Round: round, Server: server,
			Name: strings.ToValidUTF8(name, "�"), Tuples: tuples, Words: words,
			Frags: frags, Attempt: attempt, Units: units, MaxRecv: maxRecv, P99Recv: p99,
			Gini: gini, Dropped: dropped, Duplicated: duplicated, Redelivered: redelivered,
			Crashes: crashes,
		}
		events := []Event{ev, ev} // two copies: line framing must hold across events
		got, err := ReadJSONL(bytes.NewReader(MarshalJSONL(events)))
		if err != nil {
			t.Fatalf("ReadJSONL(MarshalJSONL(%+v)): %v", ev, err)
		}
		if len(got) != len(events) {
			t.Fatalf("round-trip returned %d events, wrote %d", len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("event %d: round-trip mismatch\n got %+v\nwant %+v", i, got[i], events[i])
			}
		}
	})
}

// FuzzReadJSONL feeds the strict parser arbitrary bytes: it must never
// panic, and anything it accepts must re-encode and re-parse to the
// same events (the parser's output is always in the codec's image).
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"kind":"send","round":0,"server":1,"tuples":7}`))
	f.Add([]byte("{\"kind\":\"round_start\",\"round\":0,\"server\":-1}\n\n{\"kind\":\"skew\",\"round\":0,\"server\":-1,\"gini\":0.5}"))
	f.Add([]byte("{\"kind\":\"exchange\",\"round\":3,\"server\":-1,\"name\":\"out:delta\",\"tuples\":42,\"words\":1}\n{\"kind\":\"choose\",\"round\":3,\"server\":-1,\"name\":\"pick\",\"tuples\":20,\"attempt\":1,\"max_recv\":7,\"frags\":1}"))
	f.Add([]byte(`{"kind":"send","round":0,"server":1,"bogus":3}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range events {
			// A parsed event came from JSON, so its strings are valid
			// UTF-8 and its floats finite — re-encoding cannot fail.
			if !utf8.ValidString(events[i].Kind) || !utf8.ValidString(events[i].Name) {
				t.Fatalf("parser produced invalid UTF-8 in event %d: %+v", i, events[i])
			}
		}
		again, err := ReadJSONL(bytes.NewReader(MarshalJSONL(events)))
		if err != nil {
			t.Fatalf("re-parse of re-encoded trace failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-parse returned %d events, had %d", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("event %d changed across re-encode: %+v vs %+v", i, events[i], again[i])
			}
		}
	})
}
