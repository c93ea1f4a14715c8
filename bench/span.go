package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's own files. Spans of one op (the real front-door call and its
// step-by-step replay) share a Request number.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Request int    `json:"request_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory. A nil *tracer records nothing, so the same
// op code runs on the untraced pass at the cost of a nil check per call site.
// It is used from one goroutine.
type tracer struct {
	origin  time.Time
	spans   []span
	stack   []int
	request int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), request: -1} }

// nextRequest starts a new request: spans begun from now on carry its number.
func (t *tracer) nextRequest() {
	if t != nil {
		t.request++
	}
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: t.request, Name: name})
	t.stack = append(t.stack, id)
	t.spans[id].StartNS = int64(time.Since(t.origin))
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("bench: span closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNS = now
}

// selfTimes returns, per span, its duration minus the time its direct
// children cover. Children of one parent never overlap here (one goroutine,
// strictly nested calls), so the children's durations simply add.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// durationsByName collects every span's duration in milliseconds under its
// name.
func durationsByName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()))
	}
	return out
}

// writeSpans writes the spans, each with its self time, as one JSON document:
// {"workload", "spans"}.
func writeSpans(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type spanOut struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	self := selfTimes(spans)
	out := make([]spanOut, len(spans))
	for i, s := range spans {
		out[i] = spanOut{s, int64(self[i])}
	}
	body, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Spans    []spanOut `json:"spans"`
	}{workload, out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
