package sortmpc

import (
	"fmt"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// Differential tests: the parallel sorts vs the sequential stdlib-sort
// oracle over skewed and skew-free key distributions. Keys are (k, uid)
// with uid unique, so the total order is unambiguous and PSRS output
// can be compared for exact sequence equality.

// genSortInput builds a relation (k, uid): k follows the requested skew
// (the regime that stresses splitter selection), uid is the row index.
func genSortInput(skew testkit.Skew, tuples int, seed int64) *relation.Relation {
	src := testkit.GenRelation("src", []string{"k", "pad"}, skew, testkit.GenConfig{Tuples: tuples}, seed)
	rel := relation.New("R", "k", "uid")
	for i := 0; i < src.Len(); i++ {
		rel.Append(src.Row(i)[0], relation.Value(i))
	}
	return rel
}

// gatherInServerOrder concatenates outName's fragments by server id —
// the order in which a range-partitioned sort's output is globally
// sorted.
func gatherInServerOrder(c *mpc.Cluster, outName string, attrs []string) *relation.Relation {
	out := relation.New(outName, attrs...)
	for i := 0; i < c.P(); i++ {
		if f := c.Server(i).Rel(outName); f != nil {
			out.AppendAll(f.Project(outName, attrs...))
		}
	}
	return out
}

func assertExactOrder(t *testing.T, got, want *relation.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("got %d tuples, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		gr, wr := got.Row(i), want.Row(i)
		for j := range gr {
			if gr[j] != wr[j] {
				t.Fatalf("row %d: got %v, want %v", i, gr, wr)
			}
		}
	}
}

// TestPSRSDiff: regular-sampled PSRS is exactly two rounds (sample
// exchange + range partition) and its concatenated output must equal
// the oracle sort as a sequence.
func TestPSRSDiff(t *testing.T) {
	keys := []string{"k", "uid"}
	testkit.Sweep(t, testkit.DefaultConfig(), func(t *testing.T, p int, seed int64, skew testkit.Skew) {
		rel := genSortInput(skew, 160, seed)
		want := testkit.OracleSort(rel, keys...)
		c := mpc.NewCluster(p, seed)
		c.ScatterRoundRobin(rel)
		PSRS(c, "R", keys, "out")
		testkit.AssertRounds(t, c, 2)
		if err := VerifySorted(c, "out", keys); err != nil {
			t.Fatalf("VerifySorted: %v", err)
		}
		assertExactOrder(t, gatherInServerOrder(c, "out", keys), want)
	})
}

// TestPSRSRandomSampleDiff: the random-splitter variant has the same
// two-round structure and the same output contract (balance, not
// order, is what sampling affects).
func TestPSRSRandomSampleDiff(t *testing.T) {
	keys := []string{"k", "uid"}
	testkit.Sweep(t, testkit.DefaultConfig(), func(t *testing.T, p int, seed int64, skew testkit.Skew) {
		rel := genSortInput(skew, 160, seed)
		want := testkit.OracleSort(rel, keys...)
		c := mpc.NewCluster(p, seed)
		c.ScatterRoundRobin(rel)
		PSRSRandomSample(c, "R", keys, "out", 8)
		testkit.AssertRounds(t, c, 2)
		if err := VerifySorted(c, "out", keys); err != nil {
			t.Fatalf("VerifySorted: %v", err)
		}
		assertExactOrder(t, gatherInServerOrder(c, "out", keys), want)
	})
}

// TestFanLimitedSortDiff: with fan-out limited to fan, sorting takes
// exactly 2·⌈log_fan p⌉ rounds (sample + partition per level) — the
// constructive side of the Ω(log_L N) round lower bound.
func TestFanLimitedSortDiff(t *testing.T) {
	keys := []string{"k", "uid"}
	logCeil := func(fan, p int) int {
		levels := 0
		for g := p; g > 1; g = (g + fan - 1) / fan {
			levels++
		}
		return levels
	}
	for _, fan := range []int{2, 3} {
		fan := fan
		t.Run(fmt.Sprintf("fan%d", fan), func(t *testing.T) {
			testkit.Sweep(t, testkit.DefaultConfig(), func(t *testing.T, p int, seed int64, skew testkit.Skew) {
				rel := genSortInput(skew, 160, seed)
				want := testkit.OracleSort(rel, keys...)
				c := mpc.NewCluster(p, seed)
				c.ScatterRoundRobin(rel)
				FanLimitedSort(c, "R", keys, "out", fan)
				testkit.AssertRounds(t, c, 2*logCeil(fan, p))
				if err := VerifySorted(c, "out", keys); err != nil {
					t.Fatalf("VerifySorted: %v", err)
				}
				assertExactOrder(t, gatherInServerOrder(c, "out", keys), want)
			})
		})
	}
}
