package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRecorderAppendOrder(t *testing.T) {
	r := NewRecorder()
	r.Append(Event{Kind: KindAnnotate, Round: 0, Server: Driver, Name: "phase"})
	r.Append(Event{Kind: KindRoundStart, Round: 0, Server: Driver, Name: "shuffle"},
		Event{Kind: KindSend, Round: 0, Server: 1, Name: "out:R", Tuples: 10, Words: 20})
	r.Append(Event{Kind: KindCrash, Round: 0, Server: 2},
		Event{Kind: KindBackoff, Round: 0, Server: Driver, Attempt: 1, Units: 2})
	r.Append(Event{Kind: KindRoundEnd, Round: 0, Server: Driver, Name: "shuffle", Tuples: 10, Words: 20, MaxRecv: 10})
	evs := r.Events()
	wantKinds := []string{KindAnnotate, KindRoundStart, KindSend, KindCrash, KindBackoff, KindRoundEnd}
	if len(evs) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(evs), len(wantKinds))
	}
	for i, k := range wantKinds {
		if evs[i].Kind != k {
			t.Errorf("event %d kind %q, want %q", i, evs[i].Kind, k)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindRoundStart, Round: 0, Server: Driver, Name: "shuffle"},
		{Kind: KindSend, Round: 0, Server: 3, Name: "out:R", Tuples: 7, Words: 14},
		{Kind: KindRecv, Round: 0, Server: 1, Name: "out:R", Tuples: 7, Words: 14, Frags: 2},
		{Kind: KindSkew, Round: 0, Server: Driver, Tuples: 7, Words: 14, Frags: 1, MaxRecv: 7, P99Recv: 7, Gini: 0.5},
		{Kind: KindAnnotate, Round: 1, Server: Driver, Name: "phase: ünïcode & \"quotes\""},
		{Kind: KindCrash, Round: 1, Server: 2, Attempt: 1},
		{Kind: KindBackoff, Round: 1, Server: Driver, Attempt: 2, Units: 4},
		{Kind: KindChaos, Round: 1, Server: Driver, Attempt: 3, Dropped: 5, Duplicated: 2, Redelivered: 1, Crashes: 1, Units: 6},
	}
	got, err := ReadJSONL(bytes.NewReader(MarshalJSONL(events)))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events back, wrote %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestJSONLDeterministic(t *testing.T) {
	events := []Event{
		{Kind: KindRoundStart, Round: 0, Server: Driver, Name: "a"},
		{Kind: KindSkew, Round: 0, Server: Driver, Gini: 0.123456789},
	}
	if !bytes.Equal(MarshalJSONL(events), MarshalJSONL(events)) {
		t.Error("equal event slices produced different JSONL bytes")
	}
}

func TestReadJSONLStrict(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"kind":"send","round":0,"server":1,"bogus":3}`,
		"trailing data": `{"kind":"send","round":0,"server":1} {"x":1}`,
		"not an object": `[1,2,3]`,
		"bad type":      `{"kind":"send","round":"zero","server":1}`,
	}
	for name, line := range cases {
		if _, err := ReadJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: ReadJSONL accepted %q", name, line)
		}
	}
	// Blank lines (and the trailing newline) are fine.
	evs, err := ReadJSONL(strings.NewReader("\n{\"kind\":\"round_start\",\"round\":0,\"server\":-1}\n\n"))
	if err != nil || len(evs) != 1 {
		t.Errorf("blank lines: got %d events, err %v", len(evs), err)
	}
}

func TestWriteChromeDeterministicAndWellFormed(t *testing.T) {
	events := []Event{
		{Kind: KindRoundStart, Round: 0, Server: Driver, Name: "shuffle"},
		{Kind: KindSend, Round: 0, Server: 0, Name: "out:R", Tuples: 5, Words: 10},
		{Kind: KindRecv, Round: 0, Server: 1, Name: "out:R", Tuples: 5, Words: 10, Frags: 1},
		{Kind: KindSkew, Round: 0, Server: Driver, Tuples: 5, Words: 10, Frags: 1, MaxRecv: 5, P99Recv: 5, Gini: 0.5},
		{Kind: KindRoundEnd, Round: 0, Server: Driver, Name: "shuffle", Tuples: 5, Words: 10, MaxRecv: 5},
		{Kind: KindAnnotate, Round: 1, Server: Driver, Name: "phase two"},
		{Kind: KindRoundStart, Round: 1, Server: Driver, Name: "lost"},
		{Kind: KindCrash, Round: 1, Server: 1, Attempt: 0},
		// Round 1 never ends: a recovery failure aborted it.
	}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, events); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := WriteChrome(&b, events); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("equal event slices produced different Chrome output")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome output is not valid JSON: %v", err)
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names = append(names, n)
		}
		// Metadata events carry the process/thread label in args.name.
		if args, ok := ev["args"].(map[string]any); ok {
			if n, ok := args["name"].(string); ok {
				names = append(names, n)
			}
		}
	}
	joined := strings.Join(names, "\n")
	for _, want := range []string{"mpc driver", "server 1", "r0 shuffle", "out:R", "max_recv", "gini", "phase two", "crash (attempt 0)", "r1 lost (uncommitted)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Chrome output missing %q; names:\n%s", want, joined)
		}
	}
}
