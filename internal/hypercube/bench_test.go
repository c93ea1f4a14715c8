package hypercube

import (
	"fmt"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/workload"
)

func BenchmarkHyperCubeTriangle(b *testing.B) {
	const nv, ne = 3000, 30000
	r, s, u := workload.TriangleInput(nv, ne, 7)
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	for _, p := range []int{8, 27, 64} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := mpc.NewCluster(p, 1)
				if _, err := Run(c, hypergraph.Triangle(), rels, "out", 42, LocalGeneric); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHypercube sweeps the hypercube triangle join over the
// delivery-bound cluster sizes (non-cube p exercises share rounding).
func BenchmarkHypercube(b *testing.B) {
	const nv, ne = 3000, 30000
	r, s, u := workload.TriangleInput(nv, ne, 7)
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	for _, p := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := mpc.NewCluster(p, 1)
				if _, err := Run(c, hypergraph.Triangle(), rels, "out", 42, LocalGeneric); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSkewHCTriangle(b *testing.B) {
	const k = 2048
	r := relation.New("R", "x", "y")
	s := relation.New("S", "y", "z")
	u := relation.New("T", "z", "x")
	for i := relation.Value(0); i < k; i++ {
		r.Append(0, i)
		u.Append(i, 0)
		s.Append(i, (i*7+3)%k)
	}
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(64, 1)
		if _, err := RunSkewHC(c, hypergraph.Triangle(), rels, "out", 42, 0, LocalGeneric); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeavyLightTriangle(b *testing.B) {
	rels := hubTriangle(2000)
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(64, 1)
		if _, err := HeavyLightTriangle(c, rels, "out", 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveSwitch measures the full skew-reactive path on a
// mispredicted-skew instance: the count of the uniform plan, the
// detection rounds that confirm its trigger, and the SkewHC routing
// round it switches to.
func BenchmarkAdaptiveSwitch(b *testing.B) {
	q := hypergraph.Triangle()
	rels := testkit.GenMispredicted(q, testkit.GenConfig{Tuples: 4096, HeavyFrac: 0.5}, 7)
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(16, 7)
		res, err := RunAdaptive(c, q, rels, "out", 42)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Switched {
			b.Fatal("adaptive run did not switch")
		}
	}
}

// BenchmarkHetTriangle measures the capacity-aware plan, shuffle and
// per-server local joins on an unequal profile.
func BenchmarkHetTriangle(b *testing.B) {
	const nv, ne = 3000, 30000
	r, s, u := workload.TriangleInput(nv, ne, 7)
	rels := map[string]*relation.Relation{"R": r, "S": s, "T": u}
	caps := []float64{4, 4, 2, 2, 1, 1, 1, 1}
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(8, 1)
		c.SetCapacities(caps)
		if _, err := RunHet(c, hypergraph.Triangle(), rels, "out", 42, LocalGeneric); err != nil {
			b.Fatal(err)
		}
	}
}
