package sortmpc

import (
	"errors"
	"testing"

	"mpcquery/internal/mpc"
)

// loseRound is a fault schedule that drops every fragment of round k
// and allows one delivery attempt, so round k fails recovery whatever
// it sends, and every round before it commits untouched.
type loseRound struct{ k int }

func (loseRound) StragglerUnits(round, server int) int64    { return 0 }
func (loseRound) CrashedAt(round, attempt, server int) bool { return false }
func (l loseRound) FragmentFate(round, attempt, src, dst, streamIdx int) mpc.FaultFate {
	if round == l.k {
		return mpc.FateDrop
	}
	return mpc.FateDeliver
}
func (loseRound) MaxAttempts() int               { return 1 }
func (loseRound) BackoffUnits(attempt int) int64 { return 1 }

// TestVerifySortedRefusesFailedCluster: each sort at p = 8 loses round
// k, for each k of its fault-free run, and VerifySorted then returns
// the cluster's *mpc.RecoveryFailure for round k instead of judging the
// partial output.
func TestVerifySortedRefusesFailedCluster(t *testing.T) {
	const p, n, seed = 8, 2000, 1
	keys := []string{"k"}
	sorts := map[string]func(c *mpc.Cluster){
		"PSRS":             func(c *mpc.Cluster) { PSRS(c, "R", keys, "sorted") },
		"PSRSRandomSample": func(c *mpc.Cluster) { PSRSRandomSample(c, "R", keys, "sorted", 16) },
		"FanLimitedSort":   func(c *mpc.Cluster) { FanLimitedSort(c, "R", keys, "sorted", 2) },
	}
	for name, sort := range sorts {
		clean, _ := scatterUniform(t, p, n, seed)
		sort(clean)
		if err := VerifySorted(clean, "sorted", keys); err != nil || clean.Metrics().Rounds() == 0 {
			t.Fatalf("%s fault-free: %d rounds, error %v", name, clean.Metrics().Rounds(), err)
		}
		for k := 0; k < clean.Metrics().Rounds(); k++ {
			c, _ := scatterUniform(t, p, n, seed)
			c.SetFaultInjector(loseRound{k})
			sort(c)
			var f *mpc.RecoveryFailure
			if err := VerifySorted(c, "sorted", keys); !errors.As(err, &f) || f.Round != k {
				t.Fatalf("%s losing round %d: VerifySorted returned %v", name, k, err)
			}
		}
	}
}
