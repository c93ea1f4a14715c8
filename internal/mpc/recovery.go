// Fault injection and round recovery.
//
// The simulator models imperfect execution the way a deterministic
// simulator can: faults are drawn from a seeded schedule (a
// FaultInjector, typically a chaos.Schedule), injected at the delivery
// boundary of every round, and repaired by a bounded replay loop before
// the round commits. The protocol is the classic checkpoint/replay
// design of shared-nothing engines:
//
//   - checkpoint: the source-side round buffers (Out) are retained until
//     the round commits, so any fragment can be retransmitted;
//   - crash detection: a server that is down during a delivery attempt
//     receives nothing and loses its round inbox; it restarts from its
//     last round-boundary state before the next attempt;
//   - exactly-once: the driver tracks which fragments have landed.
//     Wire duplicates are detected and discarded; dropped and
//     crash-wiped fragments are retransmitted on the next attempt, with
//     exponential backoff metered (never slept) as simulated delay.
//
// A round either converges — every fragment accepted exactly once, then
// committed through the normal delivery engine, so the post-round
// server state and the (L, r, C) metering are bit-for-bit those of the
// fault-free run, with the recovery activity recorded separately in
// RoundStat.Chaos — or it exhausts the replay budget and fails: the
// cluster's Err becomes a *RecoveryFailure, the ledger ends at the
// failed round's attempt log, further rounds run nothing, and Gather
// refuses to read possibly-partial state.

package mpc

import "fmt"

// FaultFate is the fate of one fragment transmission during one
// delivery attempt.
type FaultFate int

// Fragment fates.
const (
	// FateDeliver lands the fragment normally.
	FateDeliver FaultFate = iota
	// FateDrop loses the fragment in transit; it stays pending and is
	// retransmitted on the next attempt.
	FateDrop
	// FateDuplicate lands the fragment twice; the receiver-side
	// exactly-once filter discards the second copy.
	FateDuplicate
)

// FaultInjector supplies a deterministic per-round fault schedule. All
// methods must be pure functions of their arguments (plus the
// injector's own immutable configuration) and safe for concurrent use:
// equal inputs must yield equal faults, or simulations stop being
// reproducible. Rounds are identified by their zero-based index in the
// cluster's metrics (so ResetMetrics also restarts the schedule).
type FaultInjector interface {
	// StragglerUnits returns the simulated delay units server suffers
	// in round (0 = no straggling). Purely metered, never slept.
	StragglerUnits(round, server int) int64
	// CrashedAt reports whether server is down during delivery attempt
	// attempt of round: it receives nothing during the attempt and its
	// round inbox is wiped.
	CrashedAt(round, attempt, server int) bool
	// FragmentFate decides what happens to the fragment that source src
	// addressed to dst on its streamIdx-th stream (creation order)
	// during the given attempt.
	FragmentFate(round, attempt, src, dst, streamIdx int) FaultFate
	// MaxAttempts is the per-round replay budget (values < 1 are read
	// as 1). A round whose fragments have not all landed after
	// MaxAttempts delivery attempts fails recovery.
	MaxAttempts() int
	// BackoffUnits returns the simulated delay the driver waits before
	// replay attempt (≥ 1). Metered, never slept.
	BackoffUnits(attempt int) int64
}

// SetFaultInjector attaches a fault schedule to the cluster; nil
// disables injection. With an injector attached, every Round runs the
// recovery protocol documented at the top of this file; with none, the
// delivery path is exactly the fault-free engine.
func (c *Cluster) SetFaultInjector(f FaultInjector) { c.faults = f }

// RecoveryFailure reports a round whose fragments could not all be
// delivered within the replay budget. It is the error the failed
// cluster's Err returns; errors.As finds it through any wrapping.
type RecoveryFailure struct {
	// Round is the zero-based index of the failed round; Name its label.
	Round int
	Name  string
	// Attempts is the number of delivery attempts consumed (the full
	// replay budget), Lost the fragments still undelivered after them.
	Attempts int
	Lost     int
	// Metrics is the failed cluster's ledger, the failed round's
	// attempt log last: a failed run's trace is drawn from it.
	Metrics *Metrics
}

// Crashed lists the servers that were down during the final attempt,
// read from the failed round's attempt log; nil without a ledger.
func (f *RecoveryFailure) Crashed() []int {
	if f.Metrics == nil || f.Metrics.failed == nil {
		return nil
	}
	log := f.Metrics.failed.Chaos.Log
	return log[len(log)-1].Down
}

func (f *RecoveryFailure) Error() string {
	return fmt.Sprintf("mpc: round %d %q: recovery failed after %d attempts: %d fragments undelivered (servers down: %v)",
		f.Round, f.Name, f.Attempts, f.Lost, f.Crashed())
}

// deliverChaos is the recovery driver: it replays the round's fragment
// set against the fault schedule until every fragment has been accepted
// exactly once, then commits the round through the fault-free engine.
// Because commit happens only after the full fragment set has landed,
// the committed state and metering are bit-for-bit the fault-free ones
// regardless of the fault/replay interleaving, and delivery order never
// depends on which attempt a fragment landed in. A round that exhausts
// the replay budget returns a *RecoveryFailure and is not committed.
func (c *Cluster) deliverChaos(name string, outs []*Out) error {
	inj := c.faults
	round := c.metrics.Rounds()
	// Enumerate the round's fragments in canonical order: source, then
	// stream creation order, then destination. Tuple counts (not word
	// counts) gate inclusion so arity-0 streams are recovered too.
	type frag struct{ src, si, dst int }
	var frags []frag
	for src := 0; src < c.p; src++ {
		for si, stName := range outs[src].order {
			st := outs[src].streams[stName]
			for dst := 0; dst < c.p; dst++ {
				if st.counts[dst] > 0 {
					frags = append(frags, frag{src, si, dst})
				}
			}
		}
	}
	cs := &ChaosStat{StraggleUnits: make([]int64, c.p)}
	for s := 0; s < c.p; s++ {
		cs.StraggleUnits[s] = inj.StragglerUnits(round, s)
	}
	maxAttempts := inj.MaxAttempts()
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	landed := make([]bool, len(frags))
	remaining := len(frags)
	var backoff int64 // metered before the attempt
	for attempt := 0; ; attempt++ {
		// Crash detection at the attempt boundary.
		var crashed []bool
		var down []int
		for d := 0; d < c.p; d++ {
			if inj.CrashedAt(round, attempt, d) {
				if crashed == nil {
					crashed = make([]bool, c.p)
				}
				crashed[d] = true
				down = append(down, d)
			}
		}
		cs.Log = append(cs.Log, AttemptLog{Backoff: backoff, Down: down})
		if len(down) > 0 {
			// A crashed server loses its round inbox: everything that
			// had landed on it must be delivered again.
			for i := range frags {
				if landed[i] && crashed[frags[i].dst] {
					landed[i] = false
					remaining++
					cs.Redelivered++
				}
			}
		}
		for i := range frags {
			if landed[i] {
				continue
			}
			f := frags[i]
			if crashed != nil && crashed[f.dst] {
				continue // messages to a down server are lost with it
			}
			switch inj.FragmentFate(round, attempt, f.src, f.dst, f.si) {
			case FateDrop:
				cs.Dropped++
			case FateDuplicate:
				// Landed twice on the wire; the exactly-once filter
				// keeps one copy.
				cs.Duplicated++
				landed[i] = true
				remaining--
			default:
				landed[i] = true
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		if attempt+1 >= maxAttempts {
			c.metrics.failed = &RoundStat{Name: name, Chaos: cs}
			return &RecoveryFailure{Round: round, Name: name, Attempts: attempt + 1, Lost: remaining, Metrics: c.metrics}
		}
		backoff = inj.BackoffUnits(attempt + 1)
	}
	if err := c.deliverCommit(name, outs); err != nil {
		return err
	}
	c.metrics.stats[len(c.metrics.stats)-1].Chaos = cs
	return nil
}
