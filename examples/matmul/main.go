// Matrix multiplication demo (slides 107–126): multiplies two 128×128
// matrices three ways on the simulator — the one-round rectangle-block
// algorithm, the multi-round square-block rotation algorithm, and the
// SQL join+aggregate formulation — and prints the communication/round
// trade-off the tutorial's slide-126 figure summarizes.
package main

import (
	"fmt"

	"mpcquery/internal/cost"
	"mpcquery/internal/matmul"
	"mpcquery/internal/mpc"
)

func main() {
	const n = 128
	a := matmul.Random(n, n, 9, 1)
	b := matmul.Random(n, n, 9, 2)
	want := matmul.Multiply(a, b)
	fmt.Println("=== MPC matrix multiplication (slides 107–126) ===")
	fmt.Printf("n = %d; C and L count matrix elements\n\n", n)
	fmt.Printf("%-22s %5s %8s %7s %10s %12s\n", "algorithm", "p", "L", "rounds", "C", "C formula")

	// One-round rectangle-block on a 4×4 grid.
	cr := mpc.NewCluster(16, 1)
	rr, err := matmul.RectangleBlock(cr, a, b)
	check(err, rr.C.Equal(want), "rectangle")
	lr := float64(cr.Metrics().MaxLoad())
	fmt.Printf("%-22s %5d %8d %7d %10d %12.0f\n", "rectangle (1 round)", 16,
		cr.Metrics().MaxLoad(), rr.Rounds, cr.Metrics().TotalComm(), cost.MatMulRectComm(n, lr))

	// Multi-round square-block with H = 4 blocks (p = 16).
	cs := mpc.NewCluster(16, 1)
	rs, err := matmul.SquareBlock(cs, a, b, 4, 1)
	check(err, rs.C.Equal(want), "square")
	fmt.Printf("%-22s %5d %8d %7d %10d %12s\n", "square-block H=4", 16,
		cs.Metrics().MaxLoad(), rs.Rounds, cs.Metrics().TotalComm(), "2Hn²")

	// Same algorithm with doubled processors (slide 119: p = 2H²).
	c2 := mpc.NewCluster(32, 1)
	r2, err := matmul.SquareBlock(c2, a, b, 4, 2)
	check(err, r2.C.Equal(want), "square g=2")
	fmt.Printf("%-22s %5d %8d %7d %10d %12s\n", "square-block H=4 g=2", 32,
		c2.Metrics().MaxLoad(), r2.Rounds, c2.Metrics().TotalComm(), "2Hn²+n²")

	// SQL formulation (slide 108).
	cq := mpc.NewCluster(16, 1)
	rq, err := matmul.SQLJoinAggregate(cq, a, b, 42)
	check(err, rq.C.Equal(want), "sql")
	fmt.Printf("%-22s %5d %8d %7d %10d %12s\n", "SQL join+aggregate", 16,
		cq.Metrics().MaxLoad(), rq.Rounds, cq.Metrics().TotalComm(), "-")

	fmt.Println("\nall four results verified element-wise against the local reference")
	fmt.Printf("lower bound  C ≥ n³/√L = %.0f at the square-block load (slides 123–124)\n",
		cost.MatMulCommLB(n, float64(cs.Metrics().MaxLoad())))
}

func check(err error, correct bool, what string) {
	if err != nil {
		panic(what + ": " + err.Error())
	}
	if !correct {
		panic(what + ": wrong product")
	}
}
