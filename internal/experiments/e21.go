package experiments

import (
	"fmt"

	"mpcquery/internal/matmul"
	"mpcquery/internal/mpc"
)

// E21SparseMatMul covers the slide-127 extensions: non-square products
// and sparse products via the relational formulation, whose
// communication scales with the number of non-zeros instead of the
// dense dimensions.
func E21SparseMatMul() (*Table, error) {
	t := &Table{
		ID: "E21", Title: "Sparse / non-square MM via the SQL formulation",
		SlideRef: "slides 108, 127",
		Header:   []string{"shape", "nnz(A)+nnz(B)", "rounds", "L", "total C", "dense elements", "correct"},
	}
	type caseSpec struct {
		name string
		a, b *matmul.Matrix
	}
	cases := []caseSpec{
		{"square dense 96×96", matmul.Random(96, 96, 6, 1), matmul.Random(96, 96, 6, 2)},
		{"rect dense 64×128 · 128×32", matmul.Random(64, 128, 6, 3), matmul.Random(128, 32, 6, 4)},
		{"square sparse 1% of 256²", matmul.RandomSparse(256, 256, 655, 9, 5), matmul.RandomSparse(256, 256, 655, 9, 6)},
		{"square sparse 10% of 256²", matmul.RandomSparse(256, 256, 6553, 9, 7), matmul.RandomSparse(256, 256, 6553, 9, 8)},
	}
	for _, cs := range cases {
		want := matmul.Multiply(cs.a, cs.b)
		c := mpc.NewCluster(16, 1)
		res, err := matmul.SQLJoinAggregate(c, cs.a, cs.b, 42)
		if err != nil {
			return nil, err
		}
		dense := cs.a.Rows*cs.a.Cols + cs.b.Rows*cs.b.Cols
		t.AddRow(cs.name,
			fmtInt(int64(cs.a.NNZ()+cs.b.NNZ())),
			fmtInt(int64(res.Rounds)), fmtInt(c.Metrics().MaxLoad()),
			fmtInt(c.Metrics().TotalComm()), fmtInt(int64(dense)),
			fmt.Sprintf("%v", res.C.Equal(want)))
	}
	t.Note("p = 16; at 1%% density the join communicates ~1%% of what a dense layout would ship, plus output-sized partial sums")
	return t, nil
}
