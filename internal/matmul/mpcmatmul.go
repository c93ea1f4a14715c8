package matmul

import (
	"fmt"
	"math"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// scatterMatrix distributes a matrix's elements round-robin as tuples
// (r, c, v) under the given relation name (free initial placement).
func scatterMatrix(c *mpc.Cluster, name string, m *Matrix) {
	rel := relation.New(name, "r", "c", "v")
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			rel.Append(int64(i), int64(j), m.At(i, j))
		}
	}
	c.ScatterRoundRobin(rel)
}

// gatherMatrix reassembles an n×n matrix from element tuples (r, c, v)
// distributed under name, summing duplicates (partial sums).
func gatherMatrix(c *mpc.Cluster, name string, n int) *Matrix {
	out := New(n)
	for i := 0; i < c.P(); i++ {
		frag := c.Server(i).Rel(name)
		if frag == nil {
			continue
		}
		for j := 0; j < frag.Len(); j++ {
			row := frag.Row(j)
			out.data[row[0]*int64(n)+row[1]] += row[2]
		}
	}
	return out
}

// MatMulResult reports a distributed multiplication.
type MatMulResult struct {
	C      *Matrix
	Rounds int
}

// RectangleBlock runs the one-round algorithm of slides 109–110. The
// cluster size must be a perfect square K² with K dividing n. Processor
// (i, j) receives rows [i·t, (i+1)·t) of A and columns [j·t, (j+1)·t)
// of B (t = n/K), multiplies them into the t×t output block C_{ij}, and
// keeps it local. Load L = 2tn elements, C = K²·L = Θ(n⁴/L).
func RectangleBlock(c *mpc.Cluster, a, b *Matrix) (*MatMulResult, error) {
	n := a.N
	if b.N != n {
		return nil, fmt.Errorf("matmul: size mismatch %d vs %d", n, b.N)
	}
	k := int(math.Round(math.Sqrt(float64(c.P()))))
	if k*k != c.P() {
		return nil, fmt.Errorf("matmul: RectangleBlock needs a square processor count, got p=%d", c.P())
	}
	if n%k != 0 {
		return nil, fmt.Errorf("matmul: K=%d must divide n=%d", k, n)
	}
	t := n / k
	scatterMatrix(c, "A", a)
	scatterMatrix(c, "B", b)
	trace.Annotatef(c, "matmul.RectangleBlock n=%d grid %dx%d", n, k, k)
	start := c.Metrics().Rounds()
	c.Round("rectblock:distribute", func(srv *mpc.Server, out *mpc.Out) {
		if frag := srv.Rel("A"); frag != nil {
			st := out.Open("Arows", "r", "c", "v")
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				rg := int(row[0]) / t
				for gc := 0; gc < k; gc++ {
					st.SendRow(rg*k+gc, row)
				}
			}
		}
		if frag := srv.Rel("B"); frag != nil {
			st := out.Open("Bcols", "r", "c", "v")
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				cg := int(row[1]) / t
				for gr := 0; gr < k; gr++ {
					st.SendRow(gr*k+cg, row)
				}
			}
		}
	})
	c.LocalStep(func(srv *mpc.Server) {
		ri, ci := srv.ID()/k, srv.ID()%k
		arows := srv.RelOrEmpty("Arows", "r", "c", "v")
		bcols := srv.RelOrEmpty("Bcols", "r", "c", "v")
		// Local dense block multiply: A[t×n] × B[n×t].
		ablk := make([]int64, t*n)
		for i := 0; i < arows.Len(); i++ {
			row := arows.Row(i)
			ablk[(int(row[0])-ri*t)*n+int(row[1])] = row[2]
		}
		bblk := make([]int64, n*t)
		for i := 0; i < bcols.Len(); i++ {
			row := bcols.Row(i)
			bblk[int(row[0])*t+(int(row[1])-ci*t)] = row[2]
		}
		cRel := relation.New("C", "r", "c", "v")
		for i := 0; i < t; i++ {
			for j := 0; j < t; j++ {
				var sum int64
				for x := 0; x < n; x++ {
					sum += ablk[i*n+x] * bblk[x*t+j]
				}
				cRel.Append(int64(ri*t+i), int64(ci*t+j), sum)
			}
		}
		srv.Put(cRel)
		srv.Delete("Arows")
		srv.Delete("Bcols")
	})
	res := &MatMulResult{C: gatherMatrix(c, "C", n), Rounds: c.Metrics().Rounds() - start}
	return res, nil
}

// SquareBlock runs the multi-round block algorithm of slides 111–121
// with H×H blocking and g processor groups (g must divide H; the
// cluster must have at least g·H² servers, and H must divide n).
// Processor (gi, i, k) handles block product A_{i,j}·B_{j,k} with
// j = (i + k + z) mod H in the round covering group z = round·g + gi,
// accumulating into its local partial block. With g = 1 the result
// blocks are complete after H rounds; with g > 1, one extra round
// combines the g partial sums per output block. Per-round load
// L = 2·(n/H)² elements, total C = Θ(n³/√L).
func SquareBlock(c *mpc.Cluster, a, b *Matrix, h, g int) (*MatMulResult, error) {
	n := a.N
	if b.N != n {
		return nil, fmt.Errorf("matmul: size mismatch")
	}
	if h < 1 || n%h != 0 {
		return nil, fmt.Errorf("matmul: H=%d must divide n=%d", h, n)
	}
	if g < 1 || h%g != 0 {
		return nil, fmt.Errorf("matmul: g=%d must divide H=%d", g, h)
	}
	if c.P() < g*h*h {
		return nil, fmt.Errorf("matmul: need p ≥ g·H² = %d, have %d", g*h*h, c.P())
	}
	bsz := n / h
	scatterMatrix(c, "A", a)
	scatterMatrix(c, "B", b)
	trace.Annotatef(c, "matmul.SquareBlock n=%d H=%d g=%d", n, h, g)
	start := c.Metrics().Rounds()
	rounds := h / g
	// Server layout: server (gi, i, k) = gi·H² + i·H + k.
	for r := 0; r < rounds; r++ {
		round := r
		c.Round(fmt.Sprintf("squareblock:mult%d", r), func(srv *mpc.Server, out *mpc.Out) {
			// Route every local A/B element to the processors whose
			// block product needs it in this round.
			if frag := srv.Rel("A"); frag != nil {
				st := out.Open("Ablk", "r", "c", "v")
				for t := 0; t < frag.Len(); t++ {
					row := frag.Row(t)
					bi, bj := int(row[0])/bsz, int(row[1])/bsz
					// Needed by (gi, i=bi, k) where j = (i+k+z) mod H
					// equals bj, i.e. k = (bj - bi - z) mod H.
					for gi := 0; gi < g; gi++ {
						z := round*g + gi
						k := ((bj-bi-z)%h + h) % h
						st.SendRow(gi*h*h+bi*h+k, row)
					}
				}
			}
			if frag := srv.Rel("B"); frag != nil {
				st := out.Open("Bblk", "r", "c", "v")
				for t := 0; t < frag.Len(); t++ {
					row := frag.Row(t)
					bj, bk := int(row[0])/bsz, int(row[1])/bsz
					// Needed by (gi, i, k=bk) with i = (bj - bk - z) mod H.
					for gi := 0; gi < g; gi++ {
						z := round*g + gi
						i := ((bj-bk-z)%h + h) % h
						st.SendRow(gi*h*h+i*h+bk, row)
					}
				}
			}
		})
		c.LocalStep(func(srv *mpc.Server) {
			if srv.ID() >= g*h*h {
				return
			}
			id := srv.ID()
			i, k := (id/h)%h, id%h
			af := srv.RelOrEmpty("Ablk", "r", "c", "v")
			bf := srv.RelOrEmpty("Bblk", "r", "c", "v")
			ablk := New(bsz)
			for t := 0; t < af.Len(); t++ {
				row := af.Row(t)
				ablk.Set(int(row[0])%bsz, int(row[1])%bsz, row[2])
			}
			bblk := New(bsz)
			for t := 0; t < bf.Len(); t++ {
				row := bf.Row(t)
				bblk.Set(int(row[0])%bsz, int(row[1])%bsz, row[2])
			}
			prod := Multiply(ablk, bblk)
			psum := srv.Rel("Psum")
			if psum == nil {
				p := relation.New("Psum", "r", "c", "v")
				srv.Put(p)
				psum = p
			}
			for x := 0; x < bsz; x++ {
				for y := 0; y < bsz; y++ {
					if v := prod.At(x, y); v != 0 {
						psum.Append(int64(i*bsz+x), int64(k*bsz+y), v)
					}
				}
			}
			srv.Delete("Ablk")
			srv.Delete("Bblk")
		})
	}
	if g > 1 {
		// Combine the g partial sums per output block at group 0.
		c.Round("squareblock:combine", func(srv *mpc.Server, out *mpc.Out) {
			if srv.ID() < h*h || srv.ID() >= g*h*h {
				return
			}
			frag := srv.Rel("Psum")
			if frag == nil {
				return
			}
			st := out.Open("Psum", "r", "c", "v")
			dst := srv.ID() % (h * h)
			for t := 0; t < frag.Len(); t++ {
				st.SendRow(dst, frag.Row(t))
			}
			srv.Delete("Psum")
		})
	}
	res := &MatMulResult{C: gatherMatrix(c, "Psum", n), Rounds: c.Metrics().Rounds() - start}
	c.DeleteAll("Psum")
	return res, nil
}

// SQLJoinAggregate multiplies matrices as the relational query of
// slide 108:
//
//	SELECT A.i, B.k, SUM(A.v * B.v)
//	FROM A, B WHERE A.j = B.j GROUP BY A.i, B.k
//
// Round 1 hash-partitions A and B on j and forms local products; round
// 2 hash-partitions the products on (i, k) and sums. Zero entries are
// dropped (they contribute nothing), matching the sparse-relational
// view of the matrix.
func SQLJoinAggregate(c *mpc.Cluster, a, b *Matrix, seed uint64) (*MatMulResult, error) {
	n := a.N
	if b.N != n {
		return nil, fmt.Errorf("matmul: size mismatch")
	}
	aRel := relation.New("A", "i", "j", "v")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := a.At(i, j); v != 0 {
				aRel.Append(int64(i), int64(j), v)
			}
		}
	}
	bRel := relation.New("B", "j", "k", "v")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := b.At(i, j); v != 0 {
				bRel.Append(int64(i), int64(j), v)
			}
		}
	}
	c.ScatterRoundRobin(aRel)
	c.ScatterRoundRobin(bRel)
	trace.Annotatef(c, "matmul.SQLJoinAggregate n=%d (nnz %d+%d)", n, aRel.Len(), bRel.Len())
	start := c.Metrics().Rounds()
	p := c.P()
	// Round 1: co-partition on j.
	c.Round("sqlmm:join", func(srv *mpc.Server, out *mpc.Out) {
		if frag := srv.Rel("A"); frag != nil {
			st := out.Open("Aj", "i", "j", "v")
			for t := 0; t < frag.Len(); t++ {
				row := frag.Row(t)
				st.SendRow(relation.Bucket(relation.Hash64(row[1], seed), p), row)
			}
		}
		if frag := srv.Rel("B"); frag != nil {
			st := out.Open("Bj", "j", "k", "v")
			for t := 0; t < frag.Len(); t++ {
				row := frag.Row(t)
				st.SendRow(relation.Bucket(relation.Hash64(row[0], seed), p), row)
			}
		}
	})
	// Local join + multiply, then round 2: partition products on (i,k).
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
		srv.Put(prod)
		srv.Delete("Aj")
		srv.Delete("Bj")
	})
	c.Round("sqlmm:aggregate", func(srv *mpc.Server, out *mpc.Out) {
		frag := srv.Rel("prod")
		if frag == nil {
			return
		}
		st := out.Open("Cagg", "i", "k", "v")
		// Pre-aggregate locally (combiner) before shuffling.
		partial := relation.GroupBy("pagg", frag, []string{"i", "k"}, relation.Sum, "v", "v")
		st.SendByHash(partial, []int{0, 1}, seed^0x77)
		srv.Delete("prod")
	})
	c.LocalStep(func(srv *mpc.Server) {
		frag := srv.RelOrEmpty("Cagg", "i", "k", "v")
		srv.Put(relation.GroupBy("C", frag, []string{"i", "k"}, relation.Sum, "v", "v"))
		srv.Delete("Cagg")
	})
	res := &MatMulResult{C: gatherMatrix(c, "C", n), Rounds: c.Metrics().Rounds() - start}
	c.DeleteAll("C")
	return res, nil
}
