package mpc

import (
	"fmt"
	"strings"

	"mpcquery/internal/stats"
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
	// Attempts is the number of delivery attempts the round needed
	// (1 = converged without replay).
	Attempts int
	// Dropped counts fragments lost in transit, Duplicated wire
	// duplicates discarded by the exactly-once filter, and Redelivered
	// landed fragments wiped by a crash and sent again.
	Dropped, Duplicated, Redelivered int64
	// Crashes counts (attempt, server) crash events.
	Crashes int
	// StraggleUnits is the simulated per-server delay injected this
	// round; BackoffUnits the driver's cumulative replay backoff.
	StraggleUnits []int64
	BackoffUnits  int64
}

// Replays returns the delivery attempts beyond the first.
func (cs *ChaosStat) Replays() int { return cs.Attempts - 1 }

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

// Equal reports whether two chaos ledgers are identical — the
// determinism check for replaying a fault schedule.
func (cs *ChaosStat) Equal(o *ChaosStat) bool {
	if cs == nil || o == nil {
		return cs == o
	}
	if cs.Attempts != o.Attempts || cs.Dropped != o.Dropped || cs.Duplicated != o.Duplicated ||
		cs.Redelivered != o.Redelivered || cs.Crashes != o.Crashes || cs.BackoffUnits != o.BackoffUnits ||
		len(cs.StraggleUnits) != len(o.StraggleUnits) {
		return false
	}
	for i := range cs.StraggleUnits {
		if cs.StraggleUnits[i] != o.StraggleUnits[i] {
			return false
		}
	}
	return true
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

// Metrics accumulates per-round communication statistics for a cluster.
// It realizes the tutorial's cost model: L = MaxLoad, r = Rounds,
// C = TotalComm (slide 12 and slide 107's C = p·r·L accounting).
type Metrics struct {
	p     int
	stats []RoundStat
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

// String renders a compact per-round report including balance figures.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d L=%d C=%d\n", m.Rounds(), m.MaxLoad(), m.TotalComm())
	for i := range m.stats {
		st := &m.stats[i]
		fmt.Fprintf(&b, "  round %2d %-28s maxRecv=%-10d p50=%-10d total=%-10d imbalance=%.2f\n",
			i+1, st.Name, st.MaxRecv(), st.Quantile(0.5), st.TotalRecv(), st.Imbalance())
		if cs := st.Chaos; cs != nil {
			fmt.Fprintf(&b, "           chaos: attempts=%d dropped=%d duplicated=%d redelivered=%d crashes=%d backoff=%d maxStraggle=%d\n",
				cs.Attempts, cs.Dropped, cs.Duplicated, cs.Redelivered, cs.Crashes, cs.BackoffUnits, cs.MaxStraggle())
		}
	}
	return b.String()
}
