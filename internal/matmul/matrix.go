// Package matmul implements conventional (all-n³-products) matrix
// multiplication in the MPC model (slides 107–127):
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
//     SUM — two MPC rounds on the relational machinery. Non-square and
//     sparse products (slide 127) are the same query over other index
//     domains: only non-zeros travel, so its communication scales with
//     the number of non-zeros instead of the dense dimensions.
//
// Matrices hold int64 entries so every distributed result can be
// verified exactly against the local reference multiply; the
// communication structure (the object of study) is identical to the
// floating-point case.
package matmul

import (
	"fmt"
	"math/rand"

	"mpcquery/internal/relation"
)

// Matrix is a dense rows×cols matrix of int64 values in row-major
// order.
type Matrix struct {
	Rows, Cols int
	data       []int64
}

// New returns a rows×cols zero matrix.
func New(rows, cols int) *Matrix {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("matmul: matrix size %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, data: make([]int64, rows*cols)}
}

// Random returns a rows×cols matrix with entries uniform in [0, max),
// drawn in row-major order.
func Random(rows, cols int, max int64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.Int63n(max)
	}
	return m
}

// RandomSparse returns a rows×cols matrix with nnz non-zero entries in
// [1, max) at distinct random positions.
func RandomSparse(rows, cols, nnz int, max int64, seed int64) *Matrix {
	if nnz > rows*cols {
		panic("matmul: nnz exceeds capacity")
	}
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for filled := 0; filled < nnz; {
		pos := rng.Intn(rows * cols)
		if m.data[pos] == 0 {
			m.data[pos] = 1 + rng.Int63n(max-1)
			filled++
		}
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) int64 { return m.data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v int64) { m.data[i*m.Cols+j] = v }

// NNZ counts the non-zero entries.
func (m *Matrix) NNZ() int {
	n := 0
	for _, v := range m.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Equal reports equal shapes and exact element-wise equality.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// Multiply returns a×b with the conventional algorithm (ikj loop order
// for locality); a.Cols must equal b.Rows. It is the local reference
// all distributed algorithms are verified against.
func Multiply(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matmul: inner dims %d vs %d", a.Cols, b.Rows))
	}
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.data[i*a.Cols+k]
			if aik == 0 {
				continue
			}
			brow := b.data[k*b.Cols:]
			crow := c.data[i*c.Cols:]
			for j := 0; j < b.Cols; j++ {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c
}

// toRelation encodes the elements as tuples (rAttr, cAttr, v) in
// row-major order. The block algorithms scatter every element, zeros
// included, so their metered load is the dense one; the SQL query
// keeps only the non-zeros, which contribute to the product.
func (m *Matrix) toRelation(name, rAttr, cAttr string, zeros bool) *relation.Relation {
	rel := relation.New(name, rAttr, cAttr, "v")
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if v := m.At(i, j); v != 0 || zeros {
				rel.Append(int64(i), int64(j), v)
			}
		}
	}
	return rel
}
