// Package recursive evaluates recursive queries as MPC rounds on the
// simulator: semi-naive fixpoint iteration with a delta relation per
// iteration and a distinct-based convergence test, metered into the
// same (L, r, C) accounting as the one-shot algorithms. Shipped
// workloads are transitive closure, reachability-from-sources, and
// connected components (workloads.go), plus delta-based incremental
// view maintenance for standing two-way joins (ivm.go) and standing
// closures (ivm_closure.go): a batch of tuple inserts/deletes
// recomputes only the affected deltas, with output equality against
// full recomputation pinned by the testkit differential harness.
//
// Every iteration of the kernel costs exactly two metered rounds:
//
//	probe:  ship each delta tuple to the server owning the matching
//	        edge partition (hash of the probe column);
//	extend: join the delivered delta against the local edge fragment,
//	        reduce the candidates locally (distinct, or per-key min),
//	        and ship them to the servers owning the output tuples.
//
// A free local step then absorbs delivered candidates into the
// accumulator fragment, emits the next delta (only genuinely new
// tuples — the distinct-based convergence test), and the driver loop
// stops once the delta is globally empty. Iteration boundaries are
// stamped into the trace as annotations.
//
// Determinism: every emission walks relations in scan order and maps
// are used for membership only, so fragments, deltas, and metered
// costs are bit-for-bit identical across runs, transports, and
// chaos-recovered executions. Driver-side per-server index maps are
// safe under fault injection because round computes run exactly once —
// only delivery is replayed.
package recursive

import (
	"fmt"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// Result summarizes one fixpoint evaluation.
type Result struct {
	// OutName is the distributed output relation (gather it to inspect).
	OutName string
	// Iterations is the number of semi-naive iterations until the delta
	// emptied; 0 means the seed was already empty.
	Iterations int
	// Rounds is the number of metered communication rounds attributable
	// to this evaluation (two per iteration, plus any seeding rounds).
	Rounds int
	// OutSize is the total output cardinality across all fragments.
	OutSize int
}

// BatchStats summarizes one incremental maintenance batch.
type BatchStats struct {
	// Rounds is the number of metered rounds the batch cost — the
	// quantity to compare against full recomputation.
	Rounds int
	// Iterations counts fixpoint iterations run by the batch (closure
	// views only; always 0 for join views).
	Iterations int
	// Inserted and Deleted are the net view-tuple changes.
	Inserted, Deleted int
}

// mix derives independent routing seeds from one user seed.
func mix(seed uint64, k int64) uint64 {
	return relation.Hash64(relation.Value(k), seed^0x9e3779b97f4a7c15)
}

// fixpoint is the semi-naive evaluation kernel. The caller places the
// edge relation (partitioned by hash of its first column under
// edgeSeed), the accumulator, and the initial delta (both partitioned
// by hash of ownerCols under ownerSeed, co-located), then run drives
// probe/extend rounds until the delta empties.
type fixpoint struct {
	c     *mpc.Cluster
	label string // round, stream, and trace-annotation prefix

	delta      string // delta relation, co-located with the accumulator
	deltaAttrs []string
	candAttrs  []string

	edge      string // edge relation, partitioned by h(col 0, edgeSeed)
	edgeAttrs []string
	edgeSeed  uint64

	probeCol  int // delta column matched against edge column 0
	ownerCols []int
	ownerSeed uint64

	// extend writes the candidate tuple of one (delta row, edge row)
	// match into cand, a row of candAttrs' arity the kernel owns and
	// appends after each call.
	extend func(probe, edge, cand []relation.Value)
	// combine reduces the local candidate buffer before shipping —
	// distinct for set semantics, per-key min for label propagation.
	// Must be deterministic in the buffer's row order.
	combine func(cands *relation.Relation) *relation.Relation
	// absorb merges delivered candidates into the server's accumulator
	// and returns the next delta fragment (renamed by the kernel). It
	// runs in a free local step; closures may mutate driver-side
	// per-server state (membership indexes) — compute runs exactly once
	// even under fault injection, only delivery is replayed.
	absorb func(s *mpc.Server, cands *relation.Relation) *relation.Relation

	edgeIdx []*relation.Index // per-server edge index, built on first use
}

// dedupCombine is the set-semantics combine: sort + distinct.
func dedupCombine(cands *relation.Relation) *relation.Relation {
	cands.Dedup()
	return cands
}

// run iterates to convergence and returns the iteration count.
func (f *fixpoint) run() (int, error) {
	c := f.c
	f.edgeIdx = make([]*relation.Index, c.P())
	probeName, candName := f.label+":probe", f.label+":cand"
	// Defensive cap: each iteration either adds an output tuple or
	// improves a label, both bounded far below this. Hitting the cap
	// means a kernel bug, not a slow input.
	maxIter := 2*(c.TotalLen(f.edge)+c.TotalLen(f.delta)+c.P()) + 4
	iters := 0
	for c.TotalLen(f.delta) > 0 {
		if iters >= maxIter {
			return iters, fmt.Errorf("recursive: %s did not converge after %d iterations", f.label, iters)
		}
		iters++
		trace.Annotatef(c, "%s iteration %d: |delta|=%d", f.label, iters, c.TotalLen(f.delta))
		c.Round(probeName, func(s *mpc.Server, out *mpc.Out) {
			st := out.Open(probeName, f.deltaAttrs...)
			d := s.RelOrEmpty(f.delta, f.deltaAttrs...)
			st.SendByHash(d, []int{f.probeCol}, f.edgeSeed)
		})
		c.Round(f.label+":extend", func(s *mpc.Server, out *mpc.Out) {
			st := out.Open(candName, f.candAttrs...)
			probe := s.RelOrEmpty(probeName, f.deltaAttrs...)
			cands := relation.New(candName, f.candAttrs...)
			if probe.Len() > 0 {
				edge := s.RelOrEmpty(f.edge, f.edgeAttrs...)
				if f.edgeIdx[s.ID()] == nil {
					f.edgeIdx[s.ID()] = relation.BuildIndex(edge, f.edgeAttrs[:1])
				}
				idx, probeCols := f.edgeIdx[s.ID()], []int{f.probeCol}
				cand := make([]relation.Value, len(f.candAttrs))
				for i := 0; i < probe.Len(); i++ {
					pr := probe.Row(i)
					for _, j := range idx.Lookup(pr, probeCols) {
						f.extend(pr, edge.Row(int(j)), cand)
						cands.AppendRow(cand)
					}
				}
				cands = f.combine(cands)
			}
			st.SendByHash(cands, f.ownerCols, f.ownerSeed)
			s.Delete(probeName)
		})
		c.LocalStep(func(s *mpc.Server) {
			cands := s.RelOrEmpty(candName, f.candAttrs...)
			next := f.absorb(s, cands)
			s.Put(next.Rename(f.delta))
			s.Delete(candName)
		})
	}
	trace.Annotatef(c, "%s converged after %d iterations", f.label, iters)
	return iters, nil
}
