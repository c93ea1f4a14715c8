package mpc

import (
	"fmt"
	"math"
	"strings"

	"mpcquery/internal/stats"
	"mpcquery/internal/trace"
)

// RoundStat is one committed round's ledger: the communication each
// server received, and the per-stream entries the round's trace events
// are rendered from. The commit's landing plan fills it in one pass
// over the round's streams.
type RoundStat struct {
	Name      string
	Recv      []int64 // tuples received per server
	RecvWords []int64 // values (words) received per server
	// Self counts the tuples whose destination is their source: metered
	// like any other, but already in place. Self = TotalRecv() is a
	// shuffle onto the layout its input already had.
	Self int64
	// StreamSends holds what each source sent on each stream, in
	// canonical order (source, then stream creation order);
	// StreamRecvs what each receiver got on each stream, by stream name
	// in first-appearance order, then receiver. Only non-empty entries
	// are kept, and both share one allocation.
	StreamSends, StreamRecvs []StreamLoad
	// Chaos records fault-injection and recovery activity for the
	// round; nil unless a FaultInjector was attached. Recv/RecvWords
	// always count accepted (exactly-once) deliveries, so they match
	// the fault-free run even when Chaos shows replays.
	Chaos *ChaosStat
}

// StreamLoad is one entry of a round's per-stream ledger: the tuples
// and words one server sent (RoundStat.StreamSends) or received
// (RoundStat.StreamRecvs) on one stream.
type StreamLoad struct {
	Stream        string
	Tuples, Words int64
	// Server is the source of a send and the receiver of a receive.
	Server int32
	// Frags is a receive's fan-in: the sources that sent the receiver a
	// non-empty fragment on the stream. It is 0 on sends.
	Frags int32
}

// ChaosStat is the recovery ledger of one round executed under fault
// injection. Fragment counters are events, not tuples: one fragment is
// everything one source sent to one destination on one stream.
type ChaosStat struct {
	// Dropped counts fragments lost in transit, Duplicated wire
	// duplicates discarded by the exactly-once filter, and Redelivered
	// landed fragments wiped by a crash and sent again.
	Dropped, Duplicated, Redelivered int64
	// StraggleUnits is the simulated per-server delay injected this
	// round.
	StraggleUnits []int64
	// Log holds one entry per delivery attempt, in order; the counts
	// below are read from it.
	Log []AttemptLog
}

// AttemptLog is one delivery attempt of a fault-injected round: the
// backoff the driver metered before it (0 before the first) and the
// servers down during it.
type AttemptLog struct {
	Backoff int64
	Down    []int
}

// Attempts returns the number of delivery attempts the round needed
// (1 = converged without replay).
func (cs *ChaosStat) Attempts() int { return len(cs.Log) }

// Replays returns the delivery attempts beyond the first.
func (cs *ChaosStat) Replays() int { return len(cs.Log) - 1 }

// Crashes counts the (attempt, server) crash events.
func (cs *ChaosStat) Crashes() (n int) {
	for _, at := range cs.Log {
		n += len(at.Down)
	}
	return n
}

// BackoffUnits returns the driver's cumulative replay backoff.
func (cs *ChaosStat) BackoffUnits() (u int64) {
	for _, at := range cs.Log {
		u += at.Backoff
	}
	return u
}

// MaxStraggle returns the largest per-server injected delay.
func (cs *ChaosStat) MaxStraggle() int64 {
	var m int64
	for _, v := range cs.StraggleUnits {
		if v > m {
			m = v
		}
	}
	return m
}

// MaxRecv returns the maximum tuples received by any server this round.
func (r *RoundStat) MaxRecv() int64 {
	var m int64
	for _, v := range r.Recv {
		if v > m {
			m = v
		}
	}
	return m
}

// TotalRecv returns the total tuples received this round.
func (r *RoundStat) TotalRecv() int64 {
	var t int64
	for _, v := range r.Recv {
		t += v
	}
	return t
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of per-server received
// tuples this round, using the nearest-rank definition: the smallest
// value with at least ⌈q·p⌉ servers at or below it. Quantile(0) is the
// minimum and Quantile(1) the maximum; truncating instead of rounding
// the rank would bias high quantiles (p99) low on small clusters.
func (r *RoundStat) Quantile(q float64) int64 {
	return stats.QuantileInt64(r.Recv, q)
}

// P99Recv returns the 99th-percentile (nearest-rank) per-server
// received tuples this round — the skew summary's tail statistic. On
// small clusters (including p = 1) the nearest-rank definition makes
// this the maximum; an empty or all-zero round yields 0.
func (r *RoundStat) P99Recv() int64 { return r.Quantile(0.99) }

// GiniRecv returns the Gini coefficient of the round's per-server
// received tuples: 0 for a perfectly balanced (or empty, all-zero, or
// single-server) round, approaching 1 as one server receives
// everything. Unlike Imbalance (max/mean) it weighs the whole
// distribution, so a round where half the servers idle scores worse
// than one with a single hot outlier of the same max.
func (r *RoundStat) GiniRecv() float64 { return stats.Gini(r.Recv) }

// Imbalance returns max/mean of per-server received tuples — 1.0 is
// perfect balance; hash-partition skew shows up directly here. Returns
// 0 for an empty round.
func (r *RoundStat) Imbalance() float64 {
	total := r.TotalRecv()
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.Recv))
	return float64(r.MaxRecv()) / mean
}

// Metrics is a cluster's ledger: per-round communication statistics
// and the driver's notes, which its trace is a view of (Events). It
// realizes the tutorial's cost model: L = MaxLoad, r = Rounds,
// C = TotalComm (slide 12 and slide 107's C = p·r·L accounting).
type Metrics struct {
	p     int
	stats []RoundStat
	notes []note // in the order they were made
	// ctl holds the exchanges' sums and the decisions' costs, which
	// notes index.
	ctl []int64
	// failed is the round whose recovery exhausted its replay budget,
	// Name and Chaos only; it ends the ledger of a failed cluster.
	failed *RoundStat
}

// note is a driver record between rounds, in the order made: a phase
// marker (Cluster.Note), a control exchange (Cluster.Exchange) or a
// decision (Cluster.Choose). rounds is the number of rounds committed
// when it was made. An exchange's k sums, and a decision's L and C per
// candidate (2 words each), are ctl[at : at+k]; they are stored unboxed,
// so a record costs an untraced run no allocation of its own.
type note struct {
	rounds int
	kind   noteKind
	format string // a marker's format; an exchange's or a decision's name
	args   []any
	at, k  int
	step   bool // an exchange that needed a control step of its own
	pick   int  // a decision's pick
}

type noteKind uint8

const (
	markerNote noteKind = iota
	exchangeNote
	decisionNote
)

// mark is a position in a ledger: the notes and rounds before it.
type mark struct{ notes, rounds int }

// end returns the mark after everything the ledger holds.
func (m *Metrics) end() mark {
	rounds := len(m.stats)
	if m.failed != nil {
		rounds++
	}
	return mark{len(m.notes), rounds}
}

// NewMetrics creates empty metrics for a p-server cluster.
func NewMetrics(p int) *Metrics { return &Metrics{p: p} }

// Rounds returns r, the number of communication rounds executed.
func (m *Metrics) Rounds() int { return len(m.stats) }

// MaxLoad returns L: the maximum number of tuples received by any
// server in any single round.
func (m *Metrics) MaxLoad() int64 {
	var l int64
	for i := range m.stats {
		if v := m.stats[i].MaxRecv(); v > l {
			l = v
		}
	}
	return l
}

// TotalComm returns C: the total number of tuples communicated across
// all rounds and servers.
func (m *Metrics) TotalComm() int64 {
	var t int64
	for i := range m.stats {
		t += m.stats[i].TotalRecv()
	}
	return t
}

// RoundStats returns the per-round statistics (read-only).
func (m *Metrics) RoundStats() []RoundStat { return m.stats }

// MaxLoadOfRound returns the max per-server load of the named round
// (the first round with that name), or -1 if no such round ran.
func (m *Metrics) MaxLoadOfRound(name string) int64 {
	for i := range m.stats {
		if m.stats[i].Name == name {
			return m.stats[i].MaxRecv()
		}
	}
	return -1
}

// Events draws the ledger as its trace. Each round is framed by
// round_start and round_end; between them come the crashes and backoffs
// of each delivery attempt, the send and recv events of each stream,
// the chaos summary and the skew summary. Each note goes before the
// round_start of the round it precedes. A failed round draws only its
// round_start and attempt log. Equal ledgers draw equal traces.
func (m *Metrics) Events() []trace.Event {
	evs, _ := m.draw(mark{})
	return evs
}

// draw renders the ledger's events after from, and the mark after the
// last. It is the trace's one renderer, for Events and live sinks.
func (m *Metrics) draw(from mark) ([]trace.Event, mark) {
	to := m.end()
	var evs []trace.Event
	notes := func(before int) {
		for ; from.notes < to.notes && m.notes[from.notes].rounds <= before; from.notes++ {
			nt := &m.notes[from.notes]
			switch nt.kind {
			case markerNote:
				evs = append(evs, trace.Event{Kind: trace.KindAnnotate, Round: nt.rounds, Server: trace.Driver,
					Name: fmt.Sprintf(nt.format, nt.args...)})
			case exchangeNote:
				ev := trace.Event{Kind: trace.KindExchange, Round: nt.rounds, Server: trace.Driver, Name: nt.format, Words: int64(nt.k)}
				for _, v := range m.ctl[nt.at : nt.at+nt.k] {
					ev.Tuples += v
				}
				if nt.step {
					ev.Units = 1
				}
				evs = append(evs, ev)
			case decisionNote:
				for i := 0; i < nt.k/2; i++ {
					ev := trace.Event{Kind: trace.KindChoose, Round: nt.rounds, Server: trace.Driver, Name: nt.format,
						Attempt: i, MaxRecv: m.ctl[nt.at+2*i], Tuples: m.ctl[nt.at+2*i+1]}
					if i == nt.pick {
						ev.Frags = 1
					}
					evs = append(evs, ev)
				}
			}
		}
	}
	for round := from.rounds; round < to.rounds; round++ {
		notes(round)
		st := m.failed
		if round < len(m.stats) {
			st = &m.stats[round]
		}
		evs = append(evs, trace.Event{Kind: trace.KindRoundStart, Round: round, Server: trace.Driver, Name: st.Name})
		if cs := st.Chaos; cs != nil {
			for a, at := range cs.Log {
				if a > 0 {
					evs = append(evs, trace.Event{Kind: trace.KindBackoff, Round: round, Server: trace.Driver, Attempt: a, Units: at.Backoff})
				}
				for _, d := range at.Down {
					evs = append(evs, trace.Event{Kind: trace.KindCrash, Round: round, Server: d, Attempt: a})
				}
			}
		}
		if st == m.failed {
			break
		}
		for _, s := range st.StreamSends {
			evs = append(evs, trace.Event{Kind: trace.KindSend, Round: round, Server: int(s.Server), Name: s.Stream,
				Tuples: s.Tuples, Words: s.Words})
		}
		for _, r := range st.StreamRecvs {
			evs = append(evs, trace.Event{Kind: trace.KindRecv, Round: round, Server: int(r.Server), Name: r.Stream,
				Tuples: r.Tuples, Words: r.Words, Frags: int(r.Frags)})
		}
		if cs := st.Chaos; cs != nil {
			evs = append(evs, trace.Event{Kind: trace.KindChaos, Round: round, Server: trace.Driver, Attempt: cs.Attempts(),
				Dropped: cs.Dropped, Duplicated: cs.Duplicated, Redelivered: cs.Redelivered,
				Crashes: cs.Crashes(), Units: cs.BackoffUnits()})
		}
		var words int64
		busy := 0 // servers that received something
		for dst, n := range st.Recv {
			words += st.RecvWords[dst]
			if n > 0 {
				busy++
			}
		}
		total, maxRecv := st.TotalRecv(), st.MaxRecv()
		evs = append(evs,
			trace.Event{Kind: trace.KindSkew, Round: round, Server: trace.Driver, Tuples: total, Words: words, Frags: busy,
				MaxRecv: maxRecv, P99Recv: st.P99Recv(), Gini: st.GiniRecv()},
			trace.Event{Kind: trace.KindRoundEnd, Round: round, Server: trace.Driver, Name: st.Name,
				Tuples: total, Words: words, MaxRecv: maxRecv})
	}
	notes(math.MaxInt)
	return evs, to
}

// String renders a compact per-round report including balance figures.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d L=%d C=%d\n", m.Rounds(), m.MaxLoad(), m.TotalComm())
	if w := m.ControlWords(); w > 0 {
		fmt.Fprintf(&b, "  control: r_ctl=%d words/server=%d\n", m.ControlSteps(), w)
	}
	for i := range m.stats {
		st := &m.stats[i]
		fmt.Fprintf(&b, "  round %2d %-28s maxRecv=%-10d p50=%-10d total=%-10d imbalance=%.2f\n",
			i+1, st.Name, st.MaxRecv(), st.Quantile(0.5), st.TotalRecv(), st.Imbalance())
		if cs := st.Chaos; cs != nil {
			fmt.Fprintf(&b, "           chaos: attempts=%d dropped=%d duplicated=%d redelivered=%d crashes=%d backoff=%d maxStraggle=%d\n",
				cs.Attempts(), cs.Dropped, cs.Duplicated, cs.Redelivered, cs.Crashes(), cs.BackoffUnits(), cs.MaxStraggle())
		}
	}
	return b.String()
}
