package matmul

import (
	"fmt"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// Differential tests: the MPC matrix-multiplication algorithms vs an
// expected product built independently — a nested-loop product relation
// reduced by the testkit aggregation oracle — plus exact round counts.

// productOracle computes C = A·B through the relational route the
// algorithms implement, but sequentially and with the testkit oracle:
// enumerate all j-matching (i,j,v)·(j,k,w) pairs by nested loops, then
// group-and-sum with OracleGroupBy.
func productOracle(aRel, bRel *relation.Relation) *relation.Relation {
	prod := relation.New("prod", "i", "k", "v")
	for x := 0; x < aRel.Len(); x++ {
		ar := aRel.Row(x)
		for y := 0; y < bRel.Len(); y++ {
			br := bRel.Row(y)
			if ar[1] == br[0] {
				prod.Append(ar[0], br[1], ar[2]*br[2])
			}
		}
	}
	return testkit.OracleGroupBy("C", prod, []string{"i", "k"}, relation.Sum, "v", "v")
}

// oracleProduct is productOracle on the non-zeros of a and b.
func oracleProduct(a, b *Matrix) *relation.Relation {
	return productOracle(a.toRelation("A", "i", "j", false), b.toRelation("B", "j", "k", false))
}

// assertMatrixMatchesOracle checks every non-zero of the oracle product
// appears in C and that C has no extra non-zeros.
func assertMatrixMatchesOracle(t *testing.T, c *Matrix, want *relation.Relation) {
	t.Helper()
	exp := map[[2]int64]int64{}
	for i := 0; i < want.Len(); i++ {
		row := want.Row(i)
		exp[[2]int64{row[0], row[1]}] = row[2]
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			if got, w := c.At(i, j), exp[[2]int64{int64(i), int64(j)}]; got != w {
				t.Fatalf("C[%d,%d] = %d, want %d", i, j, got, w)
			}
		}
	}
}

// TestRectangleBlockDiff: the one-round block algorithm on every valid
// square cluster size dividing n.
func TestRectangleBlockDiff(t *testing.T) {
	const n = 12
	for _, p := range []int{1, 4, 9} {
		for _, seed := range []int64{1, 2, 3, 4, 5} {
			p, seed := p, seed
			t.Run(fmt.Sprintf("p%d/seed%d", p, seed), func(t *testing.T) {
				a, b := Random(n, n, 9, seed), Random(n, n, 9, seed+100)
				want := oracleProduct(a, b)
				c := mpc.NewCluster(p, seed)
				res, err := RectangleBlock(c, a, b)
				if err != nil {
					t.Fatalf("RectangleBlock: %v", err)
				}
				testkit.AssertRounds(t, c, 1)
				if res.Rounds != 1 {
					t.Errorf("Result.Rounds = %d, want 1", res.Rounds)
				}
				assertMatrixMatchesOracle(t, res.C, want)
			})
		}
	}
}

// TestSquareBlockDiff: the multi-round variant — H/g multiply rounds
// plus one combine round when g > 1.
func TestSquareBlockDiff(t *testing.T) {
	const n = 8
	configs := []struct{ h, g, p, rounds int }{
		{2, 1, 4, 2},  // H rounds, no combine
		{2, 2, 8, 2},  // H/g = 1 multiply + 1 combine
		{4, 2, 32, 3}, // H/g = 2 multiply + 1 combine
	}
	for _, cc := range configs {
		for _, seed := range []int64{1, 2, 3, 4, 5} {
			cc, seed := cc, seed
			t.Run(fmt.Sprintf("h%d_g%d_p%d/seed%d", cc.h, cc.g, cc.p, seed), func(t *testing.T) {
				a, b := Random(n, n, 9, seed), Random(n, n, 9, seed+100)
				want := oracleProduct(a, b)
				c := mpc.NewCluster(cc.p, seed)
				res, err := SquareBlock(c, a, b, cc.h, cc.g)
				if err != nil {
					t.Fatalf("SquareBlock: %v", err)
				}
				testkit.AssertRounds(t, c, cc.rounds)
				assertMatrixMatchesOracle(t, res.C, want)
			})
		}
	}
}

// TestSQLJoinAggregateDiff: the two-round relational formulation on
// dense square matrices.
func TestSQLJoinAggregateDiff(t *testing.T) {
	const n = 10
	for _, p := range []int{2, 4, 8} {
		for _, seed := range []int64{1, 2, 3, 4, 5} {
			p, seed := p, seed
			t.Run(fmt.Sprintf("p%d/seed%d", p, seed), func(t *testing.T) {
				a, b := Random(n, n, 9, seed), Random(n, n, 9, seed+100)
				want := oracleProduct(a, b)
				c := mpc.NewCluster(p, seed)
				res, err := SQLJoinAggregate(c, a, b, uint64(seed))
				if err != nil {
					t.Fatalf("SQLJoinAggregate: %v", err)
				}
				testkit.AssertRounds(t, c, 2)
				if res.Rounds != 2 {
					t.Errorf("Result.Rounds = %d, want 2", res.Rounds)
				}
				assertMatrixMatchesOracle(t, res.C, want)
			})
		}
	}
}

// genSparse builds a rows×cols sparse matrix whose non-zero
// positions follow the testkit skew on the row index — SkewHeavy plants
// a heavy row, the sparse analogue of a heavy join key.
func genSparse(skew testkit.Skew, rows, cols, nnz int, seed int64) *Matrix {
	pos := testkit.GenRelation("pos", []string{"r", "c"}, skew, testkit.GenConfig{Tuples: nnz, Domain: rows}, seed)
	m := New(rows, cols)
	for i := 0; i < pos.Len(); i++ {
		row := pos.Row(i)
		m.Set(int(row[0])%rows, int(row[1])%cols, int64(i%7)+1)
	}
	return m
}

// TestSQLJoinAggregateSparseDiff sweeps the relational multiply on
// sparse non-square matrices over cluster sizes, seeds, and
// non-zero-position skews.
func TestSQLJoinAggregateSparseDiff(t *testing.T) {
	testkit.Sweep(t, testkit.DefaultConfig(), func(t *testing.T, p int, seed int64, skew testkit.Skew) {
		a := genSparse(skew, 12, 9, 40, seed)
		b := genSparse(skew, 9, 11, 40, seed+1000)
		c := mpc.NewCluster(p, seed)
		res, err := SQLJoinAggregate(c, a, b, uint64(seed))
		if err != nil {
			t.Fatalf("SQLJoinAggregate: %v", err)
		}
		testkit.AssertRounds(t, c, 2)
		if res.Rounds != 2 {
			t.Errorf("reported rounds = %d, want 2", res.Rounds)
		}
		if !res.C.Equal(Multiply(a, b)) {
			t.Error("sparse product differs from dense reference multiply")
		}
		assertMatrixMatchesOracle(t, res.C, oracleProduct(a, b))
	})
}
