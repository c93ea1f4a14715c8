package matmul

import (
	"fmt"
	"math/rand"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// The slide-127 extensions: non-square and sparse matrix
// multiplication. Both fall out of the relational formulation of slide
// 108 — a rectangular product A(n1×n2)·B(n2×n3) is the same
// join-and-aggregate with rectangular index domains, and sparsity makes
// the relation sizes (and hence all communication) proportional to the
// number of non-zeros instead of the dense dimensions.

// Rect is a dense rectangular int64 matrix in row-major order.
type Rect struct {
	Rows, Cols int
	data       []int64
}

// NewRect returns a zero rows×cols matrix.
func NewRect(rows, cols int) *Rect {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("matmul: rect size %d×%d", rows, cols))
	}
	return &Rect{Rows: rows, Cols: cols, data: make([]int64, rows*cols)}
}

// RandomRect fills a rows×cols matrix with entries in [0, max).
func RandomRect(rows, cols int, max int64, seed int64) *Rect {
	rng := rand.New(rand.NewSource(seed))
	m := NewRect(rows, cols)
	for i := range m.data {
		m.data[i] = rng.Int63n(max)
	}
	return m
}

// RandomSparseRect fills a rows×cols matrix with nnz non-zero entries
// in [1, max) at distinct random positions.
func RandomSparseRect(rows, cols, nnz int, max int64, seed int64) *Rect {
	if nnz > rows*cols {
		panic("matmul: nnz exceeds capacity")
	}
	rng := rand.New(rand.NewSource(seed))
	m := NewRect(rows, cols)
	filled := 0
	for filled < nnz {
		pos := rng.Intn(rows * cols)
		if m.data[pos] == 0 {
			m.data[pos] = 1 + rng.Int63n(max-1)
			filled++
		}
	}
	return m
}

// At returns element (i, j).
func (m *Rect) At(i, j int) int64 { return m.data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Rect) Set(i, j int, v int64) { m.data[i*m.Cols+j] = v }

// NNZ counts non-zero entries.
func (m *Rect) NNZ() int {
	n := 0
	for _, v := range m.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// EqualRect reports exact equality.
func (m *Rect) EqualRect(o *Rect) bool {
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

// MultiplyRect is the local reference product; a.Cols must equal b.Rows.
func MultiplyRect(a, b *Rect) *Rect {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matmul: inner dims %d vs %d", a.Cols, b.Rows))
	}
	c := NewRect(a.Rows, b.Cols)
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

// toRelation encodes non-zero entries as (rowIdx, colIdx, value).
func (m *Rect) toRelation(name, rAttr, cAttr string) *relation.Relation {
	rel := relation.New(name, rAttr, cAttr, "v")
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if v := m.At(i, j); v != 0 {
				rel.Append(int64(i), int64(j), v)
			}
		}
	}
	return rel
}

// SparseSQLMultiply multiplies rectangular (possibly sparse) matrices
// with the slide-108 relational query: join on the inner index, then
// group-and-sum on (i, k). Two rounds; every communicated tuple is a
// non-zero, so the cost scales with nnz(A) + nnz(B) + nnz(partial
// products) rather than the dense sizes — the sparse-MM extension of
// slide 127.
func SparseSQLMultiply(c *mpc.Cluster, a, b *Rect, seed uint64) (*Rect, int, error) {
	if a.Cols != b.Rows {
		return nil, 0, fmt.Errorf("matmul: inner dims %d vs %d", a.Cols, b.Rows)
	}
	aRel := a.toRelation("A", "i", "j")
	bRel := b.toRelation("B", "j", "k")
	c.ScatterRoundRobin(aRel)
	c.ScatterRoundRobin(bRel)
	start := c.Metrics().Rounds()
	c.Shuffle("sparsemm:join", onJ(seed)...)
	c.LocalStep(func(srv *mpc.Server) {
		af := srv.RelOrEmpty("Aj", "i", "j", "v")
		bf := srv.RelOrEmpty("Bj", "j", "k", "v")
		prod := relation.New("prod", "i", "k", "v")
		ix := relation.BuildIndex(bf, []string{"j"})
		for t := 0; t < af.Len(); t++ {
			arow := af.Row(t)
			for _, bi := range ix.LookupKey([]relation.Value{arow[1]}) {
				brow := bf.Row(int(bi))
				prod.Append(arow[0], brow[1], arow[2]*brow[2])
			}
		}
		// Combiner: collapse local partial sums before the shuffle.
		srv.Put(relation.GroupBy("prod", prod, []string{"i", "k"}, relation.Sum, "v", "v"))
		srv.Delete("Aj")
		srv.Delete("Bj")
	})
	c.Shuffle("sparsemm:aggregate", mpc.Send{From: "prod", To: "Cagg", Policy: mpc.Hash(seed, "i", "k")})
	c.DeleteAll("prod")
	if err := c.Err(); err != nil {
		return nil, 0, err // an element a failed round never delivered must not read as zero
	}
	out := NewRect(a.Rows, b.Cols)
	for i := 0; i < c.P(); i++ {
		frag := c.Server(i).Rel("Cagg")
		if frag == nil {
			continue
		}
		for j := 0; j < frag.Len(); j++ {
			row := frag.Row(j)
			out.data[row[0]*int64(b.Cols)+row[1]] += row[2]
		}
	}
	c.DeleteAll("Cagg")
	rounds := c.Metrics().Rounds() - start
	return out, rounds, nil
}
