package matmul

import (
	"errors"
	"fmt"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/testkit"
)

// Chaos-differential tests: the relational matrix multiply under seeded
// fault schedules. The two-round join-then-aggregate pipeline is
// value-sensitive end to end: a duplicated join fragment would inflate
// a dot product, a lost one would zero it.

func TestSQLJoinAggregateChaos(t *testing.T) {
	const n = 10
	testkit.SweepChaos(t, testkit.Config{}, func(t *testing.T, p int, seed int64, skew testkit.Skew, spec string) {
		a, b := Random(n, n, 9, seed), Random(n, n, 9, seed+100)
		want := oracleProduct(a, b)

		clean := mpc.NewCluster(p, seed)
		if _, err := SQLJoinAggregate(clean, a, b, uint64(seed)); err != nil {
			t.Fatalf("fault-free SQLJoinAggregate: %v", err)
		}

		c := testkit.NewChaosCluster(p, seed, spec)
		res, err := SQLJoinAggregate(c, a, b, uint64(seed))
		if err != nil {
			t.Fatalf("chaos SQLJoinAggregate: %v", err)
		}
		testkit.AssertRecovered(t, c)
		testkit.AssertSameLRC(t, clean, c)
		assertMatrixMatchesOracle(t, res.C, want)
	})
}

// TestSQLJoinAggregateSparseChaos sweeps sparse non-square inputs,
// whose fragment population tracks the non-zero structure (skewed rows
// ⇒ skewed fragment sizes under fault injection).
func TestSQLJoinAggregateSparseChaos(t *testing.T) {
	testkit.SweepChaos(t, testkit.Config{}, func(t *testing.T, p int, seed int64, skew testkit.Skew, spec string) {
		a := genSparse(skew, 12, 9, 40, seed)
		b := genSparse(skew, 9, 11, 40, seed+1000)
		c := testkit.NewChaosCluster(p, seed, spec)
		res, err := SQLJoinAggregate(c, a, b, uint64(seed))
		if err != nil {
			t.Fatalf("chaos SQLJoinAggregate: %v", err)
		}
		testkit.AssertRecovered(t, c)
		if !res.C.Equal(Multiply(a, b)) {
			t.Error("chaos sparse product differs from dense reference multiply")
		}
	})
}

// TestLostRoundIsAnError: every multiplication driver that loses round
// k, for each k of its fault-free run, returns the cluster's
// *mpc.RecoveryFailure and no product, never a matrix with the lost
// elements read as zeros.
func TestLostRoundIsAnError(t *testing.T) {
	a, b := Random(8, 8, 9, 1), Random(8, 8, 9, 2)
	sa, sb := RandomSparse(6, 10, 20, 9, 1), RandomSparse(10, 4, 20, 9, 2)
	// Each driver reports whether it returned a product.
	drivers := map[string]func(c *mpc.Cluster) (bool, error){
		"RectangleBlock":          func(c *mpc.Cluster) (bool, error) { r, err := RectangleBlock(c, a, b); return r != nil, err },
		"SquareBlock":             func(c *mpc.Cluster) (bool, error) { r, err := SquareBlock(c, a, b, 2, 2); return r != nil, err },
		"SQLJoinAggregate":        func(c *mpc.Cluster) (bool, error) { r, err := SQLJoinAggregate(c, a, b, 1); return r != nil, err },
		"SQLJoinAggregate/sparse": func(c *mpc.Cluster) (bool, error) { r, err := SQLJoinAggregate(c, sa, sb, 1); return r != nil, err },
	}
	for name, run := range drivers {
		clean := mpc.NewCluster(16, 1)
		if _, err := run(clean); err != nil || clean.Metrics().Rounds() == 0 {
			t.Fatalf("%s fault-free: %d rounds, error %v", name, clean.Metrics().Rounds(), err)
		}
		for k := 0; k < clean.Metrics().Rounds(); k++ {
			c := testkit.NewChaosCluster(16, 1, fmt.Sprintf("1:drop=1,attempts=1,after=%d", k))
			product, err := run(c)
			var f *mpc.RecoveryFailure
			if !errors.As(err, &f) || f.Round != k || product {
				t.Fatalf("%s losing round %d: product returned %v, error %v", name, k, product, err)
			}
		}
	}
}
