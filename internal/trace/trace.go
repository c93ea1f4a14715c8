// Package trace is the simulator's observability layer: a structured
// event recorder that turns the MPC cost model into an inspectable
// artifact. Every claim the tutorial makes is a statement about
// (L, r, C) — load per server per round, rounds, total communication —
// and the metric window (mpc.Metrics) exposes only the post-hoc
// aggregates. The trace records *why* a round cost what it did:
//
//   - round_start / round_end frame every communication round;
//   - send / recv events carry per-stream, per-server tuple and word
//     counts, with recv fan-in (how many source fragments landed);
//   - skew events summarize each round's received-load distribution
//     (max, nearest-rank p99, Gini) using internal/stats, so hash-route
//     imbalance is visible without re-deriving it;
//   - annotate events are phase markers emitted by algorithms through
//     the Annotate hook ("skewjoin: heavy broadcast", ...);
//   - crash / backoff / chaos events are the recovery driver's ledger
//     under fault injection.
//
// Recording is deterministic — events carry logical time (round index
// and append order), never wall-clock — so equal seeds produce
// byte-identical exports. Two exporters ship with the package:
// deterministic JSON lines (WriteJSONL/ReadJSONL, machine-diffable and
// fuzz-checked to round-trip) and the Chrome trace_event format
// (WriteChrome, loadable in Perfetto or chrome://tracing with rounds as
// frames and servers as lanes, bar length proportional to tuples
// received).
//
// A Recorder is attached to a cluster with (*mpc.Cluster).SetTracer.
// The round events (send, recv, chaos, skew, round_end) are a view of
// the round's ledger, mpc.RoundStat, which every round keeps whether
// or not it is traced: the simulator renders them and hands them to
// Recorder.Append. The recorder's own methods record only what the
// ledger cannot know — annotations, adapt decisions, and the recovery
// driver's individual crashes and backoffs.
package trace

import (
	"fmt"
	"sync"
)

// Event kinds. Kind is a string so JSONL traces are self-describing.
const (
	KindRoundStart = "round_start" // Round, Name
	KindSend       = "send"        // Round, Name=stream, Server=source, Tuples, Words
	KindRecv       = "recv"        // Round, Name=stream, Server=destination, Tuples, Words, Frags=fan-in
	KindSkew       = "skew"        // Round, Tuples/Words=totals, Frags=active servers, MaxRecv, P99Recv, Gini
	KindRoundEnd   = "round_end"   // Round, Name, Tuples/Words=totals, MaxRecv
	KindAnnotate   = "annotate"    // Round=next round index at call time, Name=phase marker
	KindCrash      = "crash"       // Round, Attempt, Server — server down during the attempt
	KindBackoff    = "backoff"     // Round, Attempt, Units — replay backoff (metered, never slept)
	KindChaos      = "chaos"       // Round, Attempt=attempts, Dropped/Duplicated/Redelivered/Crashes, Units=backoff
	KindAdapt      = "adapt"       // Round=probe round, Name=reason, MaxRecv/Gini=triggering signal
)

// Event is one trace record. Server is -1 for driver-scoped events
// (round frames, skew summaries, annotations, backoff). Fields are
// scalar and comparable so events round-trip exactly through the JSONL
// codec and can be compared with ==.
type Event struct {
	Kind        string  `json:"kind"`
	Round       int     `json:"round"`
	Server      int     `json:"server"`
	Name        string  `json:"name,omitempty"`
	Tuples      int64   `json:"tuples,omitempty"`
	Words       int64   `json:"words,omitempty"`
	Frags       int     `json:"frags,omitempty"`
	Attempt     int     `json:"attempt,omitempty"`
	Units       int64   `json:"units,omitempty"`
	MaxRecv     int64   `json:"max_recv,omitempty"`
	P99Recv     int64   `json:"p99_recv,omitempty"`
	Gini        float64 `json:"gini,omitempty"`
	Dropped     int64   `json:"dropped,omitempty"`
	Duplicated  int64   `json:"duplicated,omitempty"`
	Redelivered int64   `json:"redelivered,omitempty"`
	Crashes     int     `json:"crashes,omitempty"`
}

// Driver is the Server value of driver-scoped events.
const Driver = -1

// Recorder accumulates events in append order. It is safe for
// concurrent use (the race lane runs traced rounds), though the
// simulator records from the single-threaded driver so traces are
// deterministic.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Append records events in order. The simulator renders each
// committed round's events from its ledger (mpc.RoundStat) and appends
// them here; the methods below record what the ledger cannot know.
func (r *Recorder) Append(evs ...Event) {
	r.mu.Lock()
	r.events = append(r.events, evs...)
	r.mu.Unlock()
}

// Events returns the recorded events. The returned slice is the
// recorder's backing store; treat it as read-only.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards all recorded events (capacity retained).
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// Annotate records an algorithm phase marker. round is the metric index
// the *next* round will get — the marker precedes the rounds it labels.
func (r *Recorder) Annotate(round int, msg string) {
	r.Append(Event{Kind: KindAnnotate, Round: round, Server: Driver, Name: msg})
}

// Adapt records a mid-query re-plan decision: after observing round's
// receive vector, the adaptive executor switches the remaining rounds
// to a different path. Name carries the human-readable reason and
// MaxRecv/Gini the triggering skew signal, so a trace alone explains
// why a run adapted.
func (r *Recorder) Adapt(round int, reason string, maxRecv int64, gini float64) {
	r.Append(Event{Kind: KindAdapt, Round: round, Server: Driver, Name: reason, MaxRecv: maxRecv, Gini: gini})
}

// Crash records that server was down during delivery attempt `attempt`
// of the round's recovery.
func (r *Recorder) Crash(round, attempt, server int) {
	r.Append(Event{Kind: KindCrash, Round: round, Server: server, Attempt: attempt})
}

// Backoff records the simulated delay the recovery driver metered
// before replay attempt `attempt`.
func (r *Recorder) Backoff(round, attempt int, units int64) {
	r.Append(Event{Kind: KindBackoff, Round: round, Server: Driver, Attempt: attempt, Units: units})
}

// Annotator is anything that accepts phase markers — notably
// *mpc.Cluster, which forwards them to its attached Recorder (and drops
// them when tracing is disabled). The two-method split lets Annotatef
// skip formatting entirely on untraced runs.
type Annotator interface {
	// TraceEnabled reports whether markers are currently recorded.
	TraceEnabled() bool
	// TraceAnnotate records one phase marker.
	TraceAnnotate(msg string)
}

// Annotatef emits a phase marker through a, tolerating nil annotators
// and disabled tracing. Algorithms call this between rounds to label
// their phases; the format is only evaluated when tracing is enabled,
// so on an untraced cluster the cost is two interface calls.
func Annotatef(a Annotator, format string, args ...any) {
	if a != nil && a.TraceEnabled() {
		a.TraceAnnotate(fmt.Sprintf(format, args...))
	}
}
