// Package trace is the simulator's observability layer: the event type
// a run's trace is made of, and its exporters. Every claim the tutorial
// makes is a statement about (L, r, C) — load per server per round,
// rounds, total communication — and the metric window (mpc.Metrics)
// exposes the aggregates. The trace shows *why* a round cost what it
// did:
//
//   - round_start / round_end frame every communication round;
//   - send / recv events carry per-stream, per-server tuple and word
//     counts, with recv fan-in (how many source fragments landed);
//   - skew events summarize each round's received-load distribution
//     (max, nearest-rank p99, Gini) using internal/stats, so hash-route
//     imbalance is visible without re-deriving it;
//   - annotate events are the phase markers algorithms note between
//     rounds ("join2.SkewJoin R ⋈ S on y (heavy threshold 40)", ...);
//   - exchange events are the control exchanges a driver decides from
//     (mpc.Cluster.Exchange): the words each server sent, their sum,
//     and whether the exchange rode the last round's barrier or took a
//     control step of its own; choose events are a decision's
//     candidates (mpc.Cluster.Choose), each with its counted load and
//     communication, the pick marked;
//   - crash / backoff / chaos events are the recovery driver's ledger
//     under fault injection.
//
// A trace is a view of a cluster's ledger: mpc.Metrics keeps every
// round's RoundStat and the driver's notes whether or not anyone
// traces, and Metrics.Events draws them as events after the run. A
// Recorder attached with (*mpc.Cluster).SetTracer is a live sink: it
// receives the same events as the ledger grows.
//
// Events carry logical time (round index and order), never
// wall-clock, so equal seeds produce byte-identical exports. Two
// exporters ship with the package: deterministic JSON lines
// (WriteJSONL/ReadJSONL, machine-diffable and fuzz-checked to
// round-trip) and the Chrome trace_event format (WriteChrome, loadable
// in Perfetto or chrome://tracing with rounds as frames and servers as
// lanes, bar length proportional to tuples received).
package trace

import "sync"

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
	KindExchange   = "exchange"    // Round=next round index, Name=exchange, Words=control words per server, Tuples=their sum, Units=1 for a control step of its own
	KindChoose     = "choose"      // one per candidate: Round=next round index, Name=decision, Attempt=candidate index, MaxRecv/Tuples=its counted L/C, Frags=1 on the pick
)

// Event is one trace record. Server is -1 for driver-scoped events
// (round frames, skew summaries, annotations, exchanges, choices,
// backoff). Fields are
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

// Recorder accumulates events in append order: a live sink a cluster
// appends what its ledger draws to. It is safe for concurrent use
// (several clusters may share one, as under mpc.SetDefaultTracer),
// though each cluster appends from its single-threaded driver.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Append records events in order.
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
