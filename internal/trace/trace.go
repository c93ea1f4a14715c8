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
// With no recorder attached the hot path pays a nil check and nothing
// else.
package trace

import (
	"fmt"
	"sync"

	"mpcquery/internal/stats"
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

func (r *Recorder) append(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
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

// RoundStart records the opening of round `round` (zero-based metric
// index) with its label.
func (r *Recorder) RoundStart(round int, name string) {
	r.append(Event{Kind: KindRoundStart, Round: round, Server: Driver, Name: name})
}

// Send records the per-stream totals one source server emitted this
// round.
func (r *Recorder) Send(round int, stream string, src int, tuples, words int64) {
	r.append(Event{Kind: KindSend, Round: round, Server: src, Name: stream, Tuples: tuples, Words: words})
}

// Recv records the per-stream totals one destination server received
// this round; frags is the fan-in (number of non-empty source
// fragments concatenated into the destination's inbox).
func (r *Recorder) Recv(round int, stream string, dst int, tuples, words int64, frags int) {
	r.append(Event{Kind: KindRecv, Round: round, Server: dst, Name: stream, Tuples: tuples, Words: words, Frags: frags})
}

// RoundEnd closes a round: it summarizes the per-server received-tuple
// counts (busy servers, max, p99, Gini) into a skew event and appends
// it followed by the round_end frame. recv and recvWords are
// the RoundStat vectors (one slot per server, zeros included).
func (r *Recorder) RoundEnd(round int, name string, recv, recvWords []int64) {
	var total, totalWords, maxRecv int64
	busy := 0 // servers that received something
	for _, n := range recv {
		total += n
		maxRecv = max(maxRecv, n)
		if n > 0 {
			busy++
		}
	}
	for _, v := range recvWords {
		totalWords += v
	}
	r.append(Event{
		Kind: KindSkew, Round: round, Server: Driver,
		Tuples: total, Words: totalWords, Frags: busy,
		MaxRecv: maxRecv,
		P99Recv: stats.QuantileInt64(recv, 0.99),
		Gini:    stats.Gini(recv),
	})
	r.append(Event{
		Kind: KindRoundEnd, Round: round, Server: Driver, Name: name,
		Tuples: total, Words: totalWords, MaxRecv: maxRecv,
	})
}

// Annotate records an algorithm phase marker. round is the metric index
// the *next* round will get — the marker precedes the rounds it labels.
func (r *Recorder) Annotate(round int, msg string) {
	r.append(Event{Kind: KindAnnotate, Round: round, Server: Driver, Name: msg})
}

// Adapt records a mid-query re-plan decision: after observing round's
// receive vector, the adaptive executor switches the remaining rounds
// to a different path. Name carries the human-readable reason and
// MaxRecv/Gini the triggering skew signal, so a trace alone explains
// why a run adapted.
func (r *Recorder) Adapt(round int, reason string, maxRecv int64, gini float64) {
	r.append(Event{Kind: KindAdapt, Round: round, Server: Driver, Name: reason, MaxRecv: maxRecv, Gini: gini})
}

// Crash records that server was down during delivery attempt `attempt`
// of the round's recovery.
func (r *Recorder) Crash(round, attempt, server int) {
	r.append(Event{Kind: KindCrash, Round: round, Server: server, Attempt: attempt})
}

// Backoff records the simulated delay the recovery driver metered
// before replay attempt `attempt`.
func (r *Recorder) Backoff(round, attempt int, units int64) {
	r.append(Event{Kind: KindBackoff, Round: round, Server: Driver, Attempt: attempt, Units: units})
}

// ChaosSummary records the round's recovery ledger after it committed.
func (r *Recorder) ChaosSummary(round, attempts int, dropped, duplicated, redelivered int64, crashes int, backoffUnits int64) {
	r.append(Event{
		Kind: KindChaos, Round: round, Server: Driver, Attempt: attempts,
		Dropped: dropped, Duplicated: duplicated, Redelivered: redelivered,
		Crashes: crashes, Units: backoffUnits,
	})
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
