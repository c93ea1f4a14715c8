// Package matmul implements conventional (all-n³-products) matrix
// multiplication in the MPC model (slides 107–126):
//
//   - RectangleBlock — the one-round algorithm (slide 109–110, McKellar
//     & Coffman '69 / Afrati et al. '13): processor (i,j) of a K×K grid
//     receives t = n/K full rows of A and t full columns of B, load
//     L = 2tn, total communication C = Θ(n⁴/L).
//   - SquareBlock — the multi-round block-rotation algorithm
//     (slides 111–121, McColl & Tiskin '99): matrices are tiled into
//     H×H blocks; in each round the H² (or g·H²) processors each
//     multiply one pair of blocks from the group G_z = {(i,j,k) :
//     j = (i+k+z) mod H} and accumulate partial sums, for a total
//     communication C = Θ(n³/√L).
//   - SQLJoinAggregate — matrix multiplication as the SQL query of
//     slide 108: join A(i,j,v) ⋈ B(j,k,v) on j, then GROUP BY (i,k)
//     SUM — two MPC rounds on the relational machinery.
//
// Matrices hold int64 entries so every distributed result can be
// verified exactly against the local reference multiply; the
// communication structure (the object of study) is identical to the
// floating-point case.
package matmul

import (
	"fmt"
	"math/rand"
)

// Matrix is a dense square matrix of int64 values in row-major order.
type Matrix struct {
	N    int
	data []int64
}

// New returns an n×n zero matrix.
func New(n int) *Matrix {
	if n < 1 {
		panic(fmt.Sprintf("matmul: matrix size %d", n))
	}
	return &Matrix{N: n, data: make([]int64, n*n)}
}

// Random returns an n×n matrix with entries uniform in [0, max).
func Random(n int, max int64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(n)
	for i := range m.data {
		m.data[i] = rng.Int63n(max)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) int64 { return m.data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v int64) { m.data[i*m.N+j] = v }

// Add accumulates o into m.
func (m *Matrix) Add(o *Matrix) {
	if o.N != m.N {
		panic("matmul: size mismatch in Add")
	}
	for i := range m.data {
		m.data[i] += o.data[i]
	}
}

// Equal reports exact element-wise equality.
func (m *Matrix) Equal(o *Matrix) bool {
	if o.N != m.N {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// Multiply returns a×b with the conventional O(n³) algorithm (ikj loop
// order for locality); the local reference all distributed algorithms
// are verified against.
func Multiply(a, b *Matrix) *Matrix {
	if a.N != b.N {
		panic("matmul: size mismatch in Multiply")
	}
	n := a.N
	c := New(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.data[i*n+k]
			if aik == 0 {
				continue
			}
			row := b.data[k*n:]
			out := c.data[i*n:]
			for j := 0; j < n; j++ {
				out[j] += aik * row[j]
			}
		}
	}
	return c
}
