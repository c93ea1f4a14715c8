package experiments

import (
	"math"
	"testing"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/matmul"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/sortmpc"
	"mpcquery/internal/workload"
)

// These tests assert the *physics* of the tutorial: no measured
// execution may beat the proven lower bounds. A violation would mean
// the simulator's metering (or an algorithm's accounting) is broken.

// Any one-round triangle algorithm must pay Ω(N/p^{2/3}) on skew-free
// input (slide 36).
func TestTriangleLoadRespectsOneRoundLB(t *testing.T) {
	const nv, ne = 2000, 20000
	for _, p := range []int{8, 27, 64} {
		r, s, u := workload.TriangleInput(nv, ne, 3)
		rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
		c := mpc.NewCluster(p, 1)
		if _, err := hypercube.Run(c, hypergraph.Triangle(), rels, "out", 42, hypercube.LocalGeneric); err != nil {
			t.Fatal(err)
		}
		lb := cost.TriangleOneRoundLB(float64(ne), p)
		if load := float64(c.Metrics().MaxLoad()); load < lb {
			t.Fatalf("p=%d: measured load %g beats the lower bound %g — metering broken", p, load, lb)
		}
	}
}

// Sorting communication must respect Ω(N): every tuple moves at least
// once from its arbitrary initial placement in the worst case; PSRS
// ships each tuple exactly once plus samples.
func TestSortCommAtLeastLinear(t *testing.T) {
	const n, p = 50000, 16
	c := mpc.NewCluster(p, 1)
	c.ScatterRoundRobin(workload.Uniform("R", []string{"k", "v"}, n, 1<<30, 2))
	sortmpc.PSRS(c, "R", []string{"k"}, "sorted")
	// Allow for the (1 - 1/p) fraction that actually moves.
	if got := c.Metrics().TotalComm(); got < int64(float64(n)*0.8) {
		t.Fatalf("PSRS total comm %d below linear floor", got)
	}
}

// Fan-limited sorting rounds must be ≥ ceil(log_fan p) (the slide-105
// structure).
func TestFanSortRoundsRespectLogBound(t *testing.T) {
	const n, p = 20000, 32
	for _, fan := range []int{2, 4, 8} {
		c := mpc.NewCluster(p, 1)
		c.ScatterRoundRobin(workload.Uniform("R", []string{"k", "v"}, n, 1<<30, 3))
		res := sortmpc.FanLimitedSort(c, "R", []string{"k"}, "sorted", fan)
		levels := int(math.Ceil(math.Log(float64(p)) / math.Log(float64(fan))))
		if res.Rounds < levels {
			t.Fatalf("fan=%d: %d rounds < log_fan p = %d", fan, res.Rounds, levels)
		}
	}
}

// Matrix multiplication communication must respect C = Ω(n³/√L)
// up to the constant (slides 123–124).
func TestMatMulCommRespectsLB(t *testing.T) {
	const n = 32
	a, b := matmul.Random(n, n, 8, 1), matmul.Random(n, n, 8, 2)
	for _, h := range []int{2, 4} {
		c := mpc.NewCluster(h*h, 1)
		if _, err := matmul.SquareBlock(c, a, b, h, 1); err != nil {
			t.Fatal(err)
		}
		load := float64(c.Metrics().MaxLoad())
		lb := cost.MatMulCommLB(n, load)
		if got := float64(c.Metrics().TotalComm()); got < lb {
			t.Fatalf("H=%d: C=%g beats the lower bound %g", h, got, lb)
		}
	}
}

// The HyperCube load must be at least the LP optimum (which equals the
// max over fractional edge packings) divided by a small constant for
// hashing variance — here we assert ≥ half the per-atom bound.
func TestHyperCubeLoadAtLeastLPBound(t *testing.T) {
	const ne = 30000
	p := 64
	r, s, u := workload.TriangleInput(3000, ne, 9)
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	c := mpc.NewCluster(p, 1)
	if _, err := hypercube.Run(c, hypergraph.Triangle(), rels, "out", 42, hypercube.LocalGeneric); err != nil {
		t.Fatal(err)
	}
	lp, err := cost.HyperCubeLoad(hypergraph.Triangle(),
		map[string]int64{"R": ne, "S": ne, "T": ne}, p)
	if err != nil {
		t.Fatal(err)
	}
	if load := float64(c.Metrics().MaxLoad()); load < lp/2 {
		t.Fatalf("measured load %g below half the LP bound %g", load, lp)
	}
}

// Gather after any algorithm must conserve output: spot-check that the
// E-series drivers' verification logic is itself sound by running one
// end-to-end with independently computed ground truth.
func TestExperimentGroundTruthSpotCheck(t *testing.T) {
	r, s, u := workload.TriangleWithPlantedTriangles(100, 300, 7, 11)
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	c := mpc.NewCluster(8, 1)
	if _, err := hypercube.Run(c, hypergraph.Triangle(), rels, "out", 42, hypercube.LocalGeneric); err != nil {
		t.Fatal(err)
	}
	got := c.Gather("out")
	if got.Len() < 7 {
		t.Fatalf("planted 7 triangles, found %d", got.Len())
	}
}
