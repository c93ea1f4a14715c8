package matmul

import (
	"testing"

	"mpcquery/internal/mpc"
)

func TestMatrixBasics(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 || m.At(0, 0) != 0 {
		t.Fatal("At/Set broken")
	}
	if m.NNZ() != 1 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	if m.Equal(New(2, 3)) {
		t.Fatal("Equal false positive")
	}
	if !m.Equal(m) {
		t.Fatal("Equal false negative")
	}
	if New(2, 3).Equal(New(3, 2)) {
		t.Fatal("Equal ignores the shape")
	}
	mustPanic(t, "bad size", func() { New(0, 3) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic: %s", what)
		}
	}()
	f()
}

func TestMultiplyReference(t *testing.T) {
	// 2×2 hand-checked case.
	a := New(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := New(2, 2)
	b.Set(0, 0, 5)
	b.Set(0, 1, 6)
	b.Set(1, 0, 7)
	b.Set(1, 1, 8)
	c := Multiply(a, b)
	want := [][]int64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("C[%d][%d] = %d, want %d", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMultiplyNonSquare(t *testing.T) {
	// (2×3)·(3×2).
	a := New(2, 3)
	vals := [][]int64{{1, 2, 3}, {4, 5, 6}}
	for i := range vals {
		for j, v := range vals[i] {
			a.Set(i, j, v)
		}
	}
	b := New(3, 2)
	bv := [][]int64{{7, 8}, {9, 10}, {11, 12}}
	for i := range bv {
		for j, v := range bv[i] {
			b.Set(i, j, v)
		}
	}
	c := Multiply(a, b)
	want := [][]int64{{58, 64}, {139, 154}}
	for i := range want {
		for j, v := range want[i] {
			if c.At(i, j) != v {
				t.Fatalf("C[%d][%d] = %d, want %d", i, j, c.At(i, j), v)
			}
		}
	}
	mustPanic(t, "dim mismatch", func() { Multiply(a, a) })
}

func TestMultiplyIdentity(t *testing.T) {
	n := 8
	a := Random(n, n, 10, 1)
	id := New(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	if !Multiply(a, id).Equal(a) || !Multiply(id, a).Equal(a) {
		t.Fatal("identity multiply broken")
	}
}

func TestRectangleBlockCorrect(t *testing.T) {
	const n = 16
	a, b := Random(n, n, 10, 3), Random(n, n, 10, 4)
	want := Multiply(a, b)
	c := mpc.NewCluster(16, 1) // K = 4
	res, err := RectangleBlock(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	if !res.C.Equal(want) {
		t.Fatal("rectangle-block result wrong")
	}
	// Load = 2tn = 2·(n/K)·n = 2·4·16 = 128 elements.
	if load := c.Metrics().MaxLoad(); load != 128 {
		t.Fatalf("load = %d, want 2tn = 128", load)
	}
}

func TestRectangleBlockValidation(t *testing.T) {
	a, b := Random(8, 8, 10, 1), Random(8, 8, 10, 2)
	if _, err := RectangleBlock(mpc.NewCluster(3, 1), a, b); err == nil {
		t.Fatal("non-square p should error")
	}
	if _, err := RectangleBlock(mpc.NewCluster(9, 1), a, b); err == nil {
		t.Fatal("K not dividing n should error")
	}
	if _, err := RectangleBlock(mpc.NewCluster(4, 1), a, Random(4, 4, 10, 1)); err == nil {
		t.Fatal("size mismatch should error")
	}
	if _, err := RectangleBlock(mpc.NewCluster(4, 1), Random(8, 4, 10, 1), Random(4, 8, 10, 2)); err == nil {
		t.Fatal("non-square inputs should error")
	}
}

func TestSquareBlockCorrectG1(t *testing.T) {
	const n, h = 16, 4
	a, b := Random(n, n, 10, 5), Random(n, n, 10, 6)
	want := Multiply(a, b)
	c := mpc.NewCluster(h*h, 1)
	res, err := SquareBlock(c, a, b, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != h {
		t.Fatalf("rounds = %d, want H = %d", res.Rounds, h)
	}
	if !res.C.Equal(want) {
		t.Fatal("square-block result wrong")
	}
	// Per-round load = 2·(n/H)² = 32 elements.
	for _, rs := range c.Metrics().RoundStats() {
		if rs.MaxRecv() > 32 {
			t.Fatalf("round %s load %d > 2b² = 32", rs.Name, rs.MaxRecv())
		}
	}
}

func TestSquareBlockCorrectG2(t *testing.T) {
	// Slide 119: p = 2H² halves the multiply rounds and adds one combine
	// round.
	const n, h, g = 16, 4, 2
	a, b := Random(n, n, 10, 7), Random(n, n, 10, 8)
	want := Multiply(a, b)
	c := mpc.NewCluster(g*h*h, 1)
	res, err := SquareBlock(c, a, b, h, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != h/g+1 {
		t.Fatalf("rounds = %d, want H/g+1 = %d", res.Rounds, h/g+1)
	}
	if !res.C.Equal(want) {
		t.Fatal("g=2 square-block result wrong")
	}
}

func TestSquareBlockFullParallel(t *testing.T) {
	// g = H: every group in one round, one combine round — the 2-round
	// algorithm of slide 111.
	const n, h = 8, 4
	a, b := Random(n, n, 10, 9), Random(n, n, 10, 10)
	want := Multiply(a, b)
	c := mpc.NewCluster(h*h*h, 1)
	res, err := SquareBlock(c, a, b, h, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	if !res.C.Equal(want) {
		t.Fatal("fully parallel square-block wrong")
	}
}

func TestSquareBlockValidation(t *testing.T) {
	a, b := Random(8, 8, 10, 1), Random(8, 8, 10, 2)
	if _, err := SquareBlock(mpc.NewCluster(4, 1), a, b, 3, 1); err == nil {
		t.Fatal("H not dividing n should error")
	}
	if _, err := SquareBlock(mpc.NewCluster(4, 1), a, b, 4, 3); err == nil {
		t.Fatal("g not dividing H should error")
	}
	if _, err := SquareBlock(mpc.NewCluster(4, 1), a, b, 4, 1); err == nil {
		t.Fatal("too few servers should error")
	}
	if _, err := SquareBlock(mpc.NewCluster(4, 1), Random(8, 4, 10, 1), Random(4, 8, 10, 2), 2, 1); err == nil {
		t.Fatal("non-square inputs should error")
	}
}

func TestSQLJoinAggregateCorrect(t *testing.T) {
	const n = 12
	a, b := Random(n, n, 5, 11), Random(n, n, 5, 12)
	want := Multiply(a, b)
	c := mpc.NewCluster(8, 1)
	res, err := SQLJoinAggregate(c, a, b, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2 (join + aggregate)", res.Rounds)
	}
	if !res.C.Equal(want) {
		t.Fatal("SQL matmul wrong")
	}
}

func TestSQLJoinAggregateSparse(t *testing.T) {
	// Mostly-zero matrices exercise the sparse relational encoding.
	n := 10
	a, b := New(n, n), New(n, n)
	a.Set(0, 3, 2)
	a.Set(5, 7, 4)
	b.Set(3, 9, 5)
	b.Set(7, 1, 6)
	want := Multiply(a, b)
	c := mpc.NewCluster(4, 1)
	res, err := SQLJoinAggregate(c, a, b, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.C.Equal(want) {
		t.Fatal("sparse SQL matmul wrong")
	}
}

func TestSQLJoinAggregateRectangular(t *testing.T) {
	a := Random(20, 35, 6, 1)
	b := Random(35, 12, 6, 2)
	want := Multiply(a, b)
	c := mpc.NewCluster(8, 1)
	res, err := SQLJoinAggregate(c, a, b, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	if !res.C.Equal(want) {
		t.Fatal("rectangular product wrong")
	}
	if _, err := SQLJoinAggregate(mpc.NewCluster(2, 1), Random(5, 6, 3, 1), Random(5, 6, 3, 2), 1); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSQLJoinAggregateRandomSparse(t *testing.T) {
	a := RandomSparse(60, 60, 90, 9, 3)
	b := RandomSparse(60, 60, 90, 9, 4)
	c := mpc.NewCluster(8, 1)
	res, err := SQLJoinAggregate(c, a, b, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.C.Equal(Multiply(a, b)) {
		t.Fatal("sparse product wrong")
	}
}

func TestSparseCommScalesWithNNZ(t *testing.T) {
	// Communication proportional to non-zeros: a 10× denser matrix
	// should communicate roughly 10× more (input side; partial products
	// grow quadratically in density).
	const n = 80
	mkRun := func(nnz int) int64 {
		a := RandomSparse(n, n, nnz, 9, 5)
		b := RandomSparse(n, n, nnz, 9, 6)
		c := mpc.NewCluster(8, 1)
		if _, err := SQLJoinAggregate(c, a, b, 42); err != nil {
			t.Fatal(err)
		}
		return c.Metrics().TotalComm()
	}
	sparse := mkRun(64)
	dense := mkRun(640)
	if dense < 5*sparse {
		t.Fatalf("communication should grow with nnz: sparse %d, dense %d", sparse, dense)
	}
	// And both are far below the dense-matrix element count n² = 6400
	// per matrix when nnz is small.
	if sparse > 2*int64(64+64+64*64/10) {
		t.Fatalf("sparse comm %d unexpectedly large", sparse)
	}
}

func TestRandomSparseNNZ(t *testing.T) {
	m := RandomSparse(10, 10, 17, 5, 7)
	if m.NNZ() != 17 {
		t.Fatalf("nnz = %d, want 17", m.NNZ())
	}
	mustPanic(t, "too many nnz", func() { RandomSparse(2, 2, 5, 3, 1) })
}

// TestAllMatMulAlgorithmsAgree cross-validates the three distributed
// algorithms on one input.
func TestAllMatMulAlgorithmsAgree(t *testing.T) {
	const n = 16
	a, b := Random(n, n, 8, 13), Random(n, n, 8, 14)
	want := Multiply(a, b)

	c1 := mpc.NewCluster(16, 1)
	r1, err := RectangleBlock(c1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	c2 := mpc.NewCluster(16, 1)
	r2, err := SquareBlock(c2, a, b, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c3 := mpc.NewCluster(16, 1)
	r3, err := SQLJoinAggregate(c3, a, b, 42)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Matrix{"rect": r1.C, "square": r2.C, "sql": r3.C} {
		if !m.Equal(want) {
			t.Errorf("%s disagrees with reference", name)
		}
	}
}

// TestCommunicationTradeoff verifies the slide-122/126 table's shape at
// EQUAL per-round load L: the multi-round square-block algorithm
// communicates less in total than the one-round rectangle-block
// algorithm (C = n³/√L vs 4n⁴/L), at the price of more rounds. Here
// n = 32 and L = 512 elements: rectangle-block needs K = 4 (p = 16,
// L = 2tn = 512); square-block matches that load with H = 2 blocks
// (L = 2b² = 512) on p = 4 servers.
func TestCommunicationTradeoff(t *testing.T) {
	const n = 32
	a, b := Random(n, n, 8, 15), Random(n, n, 8, 16)

	cr := mpc.NewCluster(16, 1)
	if _, err := RectangleBlock(cr, a, b); err != nil {
		t.Fatal(err)
	}
	cs := mpc.NewCluster(4, 1)
	rs, err := SquareBlock(cs, a, b, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lr, ls := cr.Metrics().MaxLoad(), cs.Metrics().MaxLoad(); lr != ls {
		t.Fatalf("loads must match for a fair comparison: rect %d, square %d", lr, ls)
	}
	rectComm := cr.Metrics().TotalComm()
	sqComm := cs.Metrics().TotalComm()
	if sqComm >= rectComm {
		t.Fatalf("square-block comm %d should beat rectangle-block %d", sqComm, rectComm)
	}
	if rs.Rounds <= 1 {
		t.Fatal("square-block should need multiple rounds")
	}
}
