package experiments

import (
	"fmt"
	"math"

	"mpcquery/internal/cost"
	"mpcquery/internal/matmul"
	"mpcquery/internal/mpc"
)

// E19MatMul reproduces the slide-122 table: the one-round
// rectangle-block algorithm has C = Θ(n⁴/L), the multi-round
// square-block algorithm C = Θ(n³/√L) with r = Θ(n³/(pL^{3/2})) rounds,
// and the products-per-processor comparison t²n vs (tn)^{3/2}.
func E19MatMul() (*Table, error) {
	const n = 64
	a, b := matmul.Random(n, n, 8, 1), matmul.Random(n, n, 8, 2)
	want := matmul.Multiply(a, b)
	t := &Table{
		ID: "E19", Title: "MPC matrix multiplication costs",
		SlideRef: "slides 109–122",
		Header:   []string{"algorithm", "p", "L (elems)", "rounds", "C measured", "C formula", "correct"},
	}
	// Rectangle-block across grid sizes.
	for _, k := range []int{2, 4, 8} {
		p := k * k
		c := mpc.NewCluster(p, 1)
		res, err := matmul.RectangleBlock(c, a, b)
		if err != nil {
			return nil, err
		}
		load := float64(c.Metrics().MaxLoad())
		t.AddRow("rectangle 1-round", fmtInt(int64(p)),
			fmtInt(c.Metrics().MaxLoad()), fmtInt(int64(res.Rounds)),
			fmtInt(c.Metrics().TotalComm()), fmtSci(cost.MatMulRectComm(n, load)),
			fmt.Sprintf("%v", res.C.Equal(want)))
	}
	// Square-block across block counts (g = 1).
	for _, h := range []int{2, 4, 8} {
		p := h * h
		c := mpc.NewCluster(p, 1)
		res, err := matmul.SquareBlock(c, a, b, h, 1)
		if err != nil {
			return nil, err
		}
		load := float64(c.Metrics().MaxLoad())
		t.AddRow(fmt.Sprintf("square H=%d", h), fmtInt(int64(p)),
			fmtInt(c.Metrics().MaxLoad()), fmtInt(int64(res.Rounds)),
			fmtInt(c.Metrics().TotalComm()),
			// Exact constant: C = 2Hn² = 2√2·n³/√L with L = 2(n/H)².
			fmtSci(2*math.Sqrt2*cost.MatMulSquareComm(n, load)),
			fmt.Sprintf("%v", res.C.Equal(want)))
	}
	// SQL formulation (slide 108).
	c := mpc.NewCluster(16, 1)
	res, err := matmul.SQLJoinAggregate(c, a, b, 42)
	if err != nil {
		return nil, err
	}
	t.AddRow("SQL join+aggregate", "16",
		fmtInt(c.Metrics().MaxLoad()), fmtInt(int64(res.Rounds)),
		fmtInt(c.Metrics().TotalComm()), "-",
		fmt.Sprintf("%v", res.C.Equal(want)))
	t.Note("n = %d; C counts matrix elements received; every algorithm is verified elementwise against the local reference", n)
	return t, nil
}

// E20CommLoadTradeoff reproduces the slide-126 figure: total
// communication C as a function of per-round load L for the one-round
// (C = 4n⁴/L) and multi-round (C = Θ(n³/√L)) algorithms, with the round
// counts that each load level forces.
func E20CommLoadTradeoff() (*Table, error) {
	const n = 64
	a, b := matmul.Random(n, n, 8, 3), matmul.Random(n, n, 8, 4)
	t := &Table{
		ID: "E20", Title: "Communication vs load for matmul",
		SlideRef: "slide 126",
		Header: []string{"L (elems)", "rect C (r=1)", "rect formula 4n⁴/L",
			"square C", "square rounds", "square formula 2√2·n³/√L"},
	}
	var rectXs, rectYs, sqXs, sqYs []float64
	// Matched loads: rectangle K and square H with equal L.
	// rect: L = 2(n/K)n; square: L = 2(n/H)² — solve H for each K.
	for _, kh := range [][2]int{{8, 8}, {4, 4}, {2, 2}} {
		k, h := kh[0], kh[1]
		cr := mpc.NewCluster(k*k, 1)
		if _, err := matmul.RectangleBlock(cr, a, b); err != nil {
			return nil, err
		}
		cs := mpc.NewCluster(h*h, 1)
		rs, err := matmul.SquareBlock(cs, a, b, h, 1)
		if err != nil {
			return nil, err
		}
		rectL := float64(cr.Metrics().MaxLoad())
		sqL := float64(cs.Metrics().MaxLoad())
		t.AddRow(fmt.Sprintf("rect %d / sq %d", int(rectL), int(sqL)),
			fmtInt(cr.Metrics().TotalComm()), fmtSci(cost.MatMulRectComm(n, rectL)),
			fmtInt(cs.Metrics().TotalComm()), fmtInt(int64(rs.Rounds)),
			fmtSci(2*math.Sqrt2*cost.MatMulSquareComm(n, sqL)))
		rectXs = append(rectXs, rectL)
		rectYs = append(rectYs, float64(cr.Metrics().TotalComm()))
		sqXs = append(sqXs, sqL)
		sqYs = append(sqYs, float64(cs.Metrics().TotalComm()))
	}
	t.Charts = append(t.Charts, &Chart{
		Title:  "slide-126 figure: total communication C vs load L",
		XLabel: "L (log)", YLabel: "C (log)",
		LogX: true, LogY: true,
		Series: []Series{
			{Name: "rectangle 1-round (C=4n⁴/L)", Marker: 'r', X: rectXs, Y: rectYs},
			{Name: "square multi-round (C=2√2·n³/√L)", Marker: 's', X: sqXs, Y: sqYs},
		},
	})
	t.Note("n = %d: smaller L forces more rounds for the square-block algorithm (the staircase of slide 126)", n)
	return t, nil
}
