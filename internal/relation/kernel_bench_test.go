package relation

import (
	"math/rand"
	"testing"
)

// Benchmarks for the local-operator hash kernels at E-series join sizes
// (E01 uses 20k-row inputs; the skew/crossover experiments push a few
// hundred thousand rows through every server-local join). These are the
// BENCH_BASELINE.json entries gated at max_ratio 0.5: the radix kernels
// must stay at least 2x faster than the EncodeKey map baseline the
// entries were recorded from.

// benchRel returns an n-row binary relation with attr values uniform in
// [0, dom), offset so keys exercise multi-byte and negative encodings.
func benchRel(seed int64, name string, attrs []string, n, dom int) *Relation {
	rng := rand.New(rand.NewSource(seed))
	r := New(name, attrs...)
	r.Grow(n * len(attrs))
	row := make([]Value, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = Value(rng.Intn(dom)) - Value(dom/4)
		}
		r.AppendRow(row)
	}
	return r
}

func BenchmarkHashJoin(b *testing.B) {
	r := benchRel(1, "R", []string{"x", "y"}, 200000, 50000)
	s := benchRel(2, "S", []string{"y", "z"}, 200000, 50000)
	b.Run("n200k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			HashJoin("J", r, s)
		}
	})
}

// BenchmarkLocalJoin is the local join kernel's table: each row times
// one fixture through GenericJoin ("generic"), through two-input
// HashJoin calls ("hash", a left-deep chain for three inputs) and
// through Semijoin calls ("semi", the first input reduced by each
// other in turn), with -benchmem. The binary rows join set inputs
// R(x,y) ⋈ S(y,z) of n rows over d values (binary5k is one server's
// fragment of the benchmark's hashjoin_sparse at p = 8; the 200k row is
// BenchmarkHashJoin/n200k's fixture); path3 and triangle are one
// server's HyperCube fragments. Run it on two commits to compare
// kernels:
//
//	go test -run XXX -bench LocalJoin -benchmem -count 5 ./internal/relation
func BenchmarkLocalJoin(b *testing.B) {
	binary := func(seed int64, n, d int) []*Relation {
		return []*Relation{
			benchRel(seed, "R", []string{"x", "y"}, n, d).Distinct(),
			benchRel(seed+1, "S", []string{"y", "z"}, n, d).Distinct(),
		}
	}
	tuple := func(r, s, u *Relation) []*Relation { return []*Relation{r, s, u} }
	for _, row := range []struct {
		name string
		vars []string
		rels []*Relation
	}{
		{"binary1500", []string{"x", "y", "z"}, binary(5, 1500, 1500)},
		{"binary1500dom150", []string{"x", "y", "z"}, binary(7, 1500, 150)},
		{"binary5k", []string{"x", "y", "z"}, binary(11, 5000, 40000)},
		{"binary20k", []string{"x", "y", "z"}, binary(9, 20000, 20000)},
		{"binary200k", []string{"x", "y", "z"}, binary(1, 200000, 50000)},
		{"path3", []string{"x", "y", "z", "w"}, tuple(benchPath3(3000))},
		{"triangle", []string{"x", "y", "z"}, tuple(benchTriangle(3000))},
	} {
		b.Run(row.name+"/generic", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GenericJoin("J", row.vars, row.rels...)
			}
		})
		b.Run(row.name+"/hash", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := row.rels[0]
				for _, s := range row.rels[1:] {
					acc = HashJoin("J", acc, s)
				}
			}
		})
		b.Run(row.name+"/semi", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := row.rels[0]
				for _, s := range row.rels[1:] {
					acc = Semijoin("J", acc, s)
				}
			}
		})
	}
}

func BenchmarkGroupBy(b *testing.B) {
	r := benchRel(3, "R", []string{"g1", "g2", "v"}, 300000, 200)
	b.Run("n300k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GroupBy("A", r, []string{"g1", "g2"}, Sum, "v", "s")
		}
	})
}

func BenchmarkBuildIndex(b *testing.B) {
	r := benchRel(4, "R", []string{"x", "y"}, 300000, 100000)
	b.Run("n300k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BuildIndex(r, []string{"y"})
		}
	})
}
