package recursive

import (
	"fmt"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

// BenchmarkSemiNaiveTC times full transitive-closure evaluation —
// every metered iteration of the semi-naive loop — on a p=8 cluster
// over random graphs of growing size.
func BenchmarkSemiNaiveTC(b *testing.B) {
	for _, sz := range []struct{ n, m int }{{50, 120}, {100, 300}} {
		edges := workload.RandomGraph("E", "src", "dst", sz.n, sz.m, 7)
		b.Run(fmt.Sprintf("n%d", sz.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := mpc.NewCluster(8, 1)
				if _, err := TransitiveClosure(c, edges, "tc", 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIVMDelta times one maintenance batch against a standing
// view: the insert fixpoint of the closure view. Setup (initial evaluation) is
// excluded; each iteration inserts a fresh tuple so the delta stays
// non-trivial and the state machine is never replaying a no-op.
func BenchmarkIVMDelta(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		edges := workload.RandomGraph("E", "src", "dst", 60, 150, 5)
		c := mpc.NewCluster(8, 1)
		view, _, err := NewClosureView(c, edges, "tcv", 23)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := view.ApplyBatch([]EdgeOp{
				{Insert: true, From: relation.Value(10_000 + i), To: relation.Value(i % 60)},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
