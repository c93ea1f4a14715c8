package chaos

import (
	"fmt"

	"mpcquery/internal/mpc"
)

// Report summarizes one execution under a fault schedule: the spec that
// reproduces it, the recovery activity aggregated over rounds, and the
// failure if recovery exhausted its budget. Because schedules are
// deterministic, re-running the same program with the Spec reproduces
// the run — faults, replays, and output — bit for bit.
type Report struct {
	// Spec is the compact schedule form accepted by ParseSchedule.
	Spec string
	// Rounds counts metered rounds; Replays delivery attempts beyond
	// the first; Crashes crash events.
	Rounds, Replays, Crashes int
	// Dropped, Duplicated and Redelivered are fragment-event totals.
	Dropped, Duplicated, Redelivered int64
	// BackoffUnits and MaxStraggle aggregate the simulated delays.
	BackoffUnits, MaxStraggle int64
	// Failure is non-nil when a round's recovery failed.
	Failure *mpc.RecoveryFailure
}

// Report builds the run summary from the cluster metrics (nil is
// allowed when the run died before metering anything) and the recovery
// failure, if any.
func (s *Schedule) Report(m *mpc.Metrics, failure *mpc.RecoveryFailure) *Report {
	r := &Report{Spec: s.Config().String(), Failure: failure}
	if m == nil {
		return r
	}
	for _, st := range m.RoundStats() {
		r.Rounds++
		cs := st.Chaos
		if cs == nil {
			continue
		}
		r.Replays += cs.Replays()
		r.Crashes += cs.Crashes()
		r.Dropped += cs.Dropped
		r.Duplicated += cs.Duplicated
		r.Redelivered += cs.Redelivered
		r.BackoffUnits += cs.BackoffUnits()
		if v := cs.MaxStraggle(); v > r.MaxStraggle {
			r.MaxStraggle = v
		}
	}
	return r
}

func (r *Report) String() string {
	status := "recovered"
	if r.Failure != nil {
		status = "FAILED: " + r.Failure.Error()
	}
	return fmt.Sprintf("rounds=%d replays=%d dropped=%d duplicated=%d redelivered=%d crashes=%d backoff=%d maxStraggle=%d — %s (reproduce with -chaos %s)",
		r.Rounds, r.Replays, r.Dropped, r.Duplicated, r.Redelivered, r.Crashes, r.BackoffUnits, r.MaxStraggle, status, r.Spec)
}
