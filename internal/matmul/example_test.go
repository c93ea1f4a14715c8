package matmul_test

import (
	"fmt"

	"mpcquery/internal/matmul"
	"mpcquery/internal/mpc"
)

// ExampleSquareBlock multiplies two 8×8 matrices with the multi-round
// block-rotation algorithm (slides 111–121) on a 2×2 processor grid.
func ExampleSquareBlock() {
	a := matmul.Random(8, 8, 5, 1)
	b := matmul.Random(8, 8, 5, 2)
	c := mpc.NewCluster(4, 1)
	res, err := matmul.SquareBlock(c, a, b, 2, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("correct:", res.C.Equal(matmul.Multiply(a, b)))
	// Output:
	// rounds: 2
	// correct: true
}

// ExampleSQLJoinAggregate multiplies a non-square sparse pair via the
// SQL formulation of slide 108.
func ExampleSQLJoinAggregate() {
	a := matmul.RandomSparse(10, 20, 15, 9, 3)
	b := matmul.RandomSparse(20, 5, 15, 9, 4)
	c := mpc.NewCluster(4, 1)
	res, err := matmul.SQLJoinAggregate(c, a, b, 42)
	if err != nil {
		panic(err)
	}
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("correct:", res.C.Equal(matmul.Multiply(a, b)))
	// Output:
	// rounds: 2
	// correct: true
}
