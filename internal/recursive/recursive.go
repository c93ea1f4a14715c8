// Package recursive evaluates recursive queries as MPC rounds on the
// simulator: semi-naive fixpoint iteration with a delta relation per
// iteration and a distinct-based convergence test, metered into the
// same (L, r, C) accounting as the one-shot algorithms. Shipped
// workloads are transitive closure, reachability-from-sources, and
// connected components (workloads.go), plus delta-based incremental
// maintenance of standing closures (ivm_closure.go): a batch of edge
// inserts/deletes recomputes only the affected deltas, with output
// equality against full recomputation pinned by the testkit
// differential harness.
//
// The edge relation is a set, as every relation is where it enters the
// system (relation.Relation.Distinct, applied by service.Register and
// mpcrun); the kernel scatters it as given and deduplicates nothing of
// it.
//
// Every iteration of the kernel costs exactly one metered round,
// extend: join the local delta against the local edge fragment, reduce
// the candidates locally (distinct, or per-key min), and ship each to
// the server owning its probe column. The kernel has one layout, named
// by the edge relation's source attribute: mpc.HashSeed(seed, that
// attribute) partitions the edges by column 0 and the delta and the
// accumulator by the probe column, the column the source attribute is
// matched against. So the server that dedups a candidate is the one
// holding the edges it probes next (arXiv 1412.4030, transferability):
// the layout extend produces is the layout the next iteration needs,
// and no round re-ships the delta. The incremental view places its
// edges and closure tuples under the same layout, with mpc.Owner per
// row.
//
// A free local step then absorbs delivered candidates into the
// accumulator fragment, emits the next delta (only genuinely new
// tuples — the distinct-based convergence test), and the driver loop
// stops once the delta is globally empty. Iteration boundaries are
// stamped into the trace as annotations.
//
// Set membership is one structure, relation.RowSet: an
// open-addressed table of row positions in the fragment it indexes,
// so a row is stored once, in its fragment, and never copied into a
// key. Extend drops a duplicate candidate as it is produced, through a
// row set over a candidate buffer reused every iteration; absorb
// appends each new candidate to the accumulator through the
// accumulator's row set, and the next delta is the rows it appended:
// a read-only view of the accumulator's storage, not a copy. The
// accumulator and its row set are reserved once per iteration and at
// least double when they grow, and the candidate receiver is emptied
// rather than deleted, so each iteration lands into storage the last
// one grew. The incremental view keeps row sets over its edge, closure
// and over-delete fragments the same way.
//
// Determinism: every emission walks relations in scan order and a row
// set only answers membership, so fragments hold their rows in
// first-occurrence order, and fragments, deltas, and metered costs are
// bit-for-bit identical across runs, transports, and chaos-recovered
// executions. Driver-side per-server row sets are safe under fault
// injection because round computes run exactly once — only delivery is
// replayed.
package recursive

import (
	"fmt"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// Result summarizes one fixpoint evaluation.
type Result struct {
	// Iterations is the number of semi-naive iterations until the delta
	// emptied; 0 means the seed was already empty.
	Iterations int
	// Rounds is the number of metered communication rounds attributable
	// to this evaluation (one per iteration, plus any seeding rounds).
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

// fixpoint is the semi-naive evaluation kernel. The caller places the
// edge relation (partitioned by hash of its first column under layout),
// the accumulator, and the initial delta (both partitioned by hash of
// probeCol under layout, co-located with the edges they probe), then
// run drives extend rounds until the delta empties.
type fixpoint struct {
	c     *mpc.Cluster
	label string // round, stream, and trace-annotation prefix

	delta string   // delta relation, co-located with the accumulator
	attrs []string // schema of the delta and of the candidates

	edge      string // edge relation, partitioned by h(col 0, layout)
	edgeAttrs []string
	layout    uint64 // mpc.HashSeed(query seed, edgeAttrs[0])

	probeCol int // delta column matched against edge column 0; owns the tuple

	// extend writes the candidate tuple of one (delta row, edge row)
	// match into cand, a row of attrs' arity the kernel owns and
	// appends after each call.
	extend func(probe, edge, cand []relation.Value)
	// combine reduces the local candidate buffer before shipping, for
	// label propagation's per-key min; it must be deterministic in the
	// buffer's row order. Nil means set semantics: extend drops each
	// duplicate candidate as it is produced, through a row set over the
	// buffer.
	combine func(cands *relation.Relation) *relation.Relation
	// absorb merges delivered candidates into the server's accumulator
	// and returns the next delta fragment, named delta. It runs in a
	// free local step; closures may mutate driver-side per-server state
	// (row sets) — compute runs exactly once even under fault
	// injection, only delivery is replayed.
	absorb func(s *mpc.Server, cands *relation.Relation) *relation.Relation

	// Per-server state, built on first use: the edge index, and the
	// candidate buffer with its row set, both reused every iteration.
	edgeIdx  []*relation.Index
	cands    []*relation.Relation
	candSets []relation.RowSet
}

// indexed is a distributed fragment together with its per-server row
// sets: sets[i] indexes the fragment named name on server i.
type indexed struct {
	name string
	sets []relation.RowSet
}

func newIndexed(name string, p int) indexed {
	return indexed{name: name, sets: make([]relation.RowSet, p)}
}

// at returns server s's fragment and the row set over it.
func (x indexed) at(s *mpc.Server, attrs []string) (*relation.Relation, *relation.RowSet) {
	return s.RelOrEmpty(x.name, attrs...), &x.sets[s.ID()]
}

// absorbNew appends to acc, indexed by set, every row of cands that keep
// admits (nil admits all) and acc does not hold yet, and returns the
// appended rows as the relation deltaName: a read-only view of acc's
// storage (relation.Tail), which later appends to acc leave alone. acc
// and its set are reserved once, for every candidate, and at least
// double when they grow, so a fixpoint reallocates each a logarithmic
// number of times.
func absorbNew(acc *relation.Relation, set *relation.RowSet, cands *relation.Relation, keep func([]relation.Value) bool, deltaName string) *relation.Relation {
	if need, room := cands.Words(), acc.Cap()-acc.Words(); need > room {
		acc.Grow(max(need, acc.Cap()+room))
	}
	set.Reserve(acc, acc.Len()+cands.Len())
	start := acc.Len()
	for i := 0; i < cands.Len(); i++ {
		row := cands.Row(i)
		if keep == nil || keep(row) {
			set.Add(acc, row)
		}
	}
	return acc.Tail(deltaName, start)
}

// absorbSet is the set-semantics absorb: each candidate that within
// holds (when within is not nil) and acc does not is appended to acc,
// and the rows appended make the next delta, named delta.
func absorbSet(acc indexed, within *indexed, delta string, attrs []string) func(s *mpc.Server, cands *relation.Relation) *relation.Relation {
	return func(s *mpc.Server, cands *relation.Relation) *relation.Relation {
		t, set := acc.at(s, attrs)
		var keep func([]relation.Value) bool
		if within != nil {
			w, ws := within.at(s, attrs)
			keep = func(row []relation.Value) bool { return ws.Has(w, row) }
		}
		next := absorbNew(t, set, cands, keep, delta)
		s.Put(t)
		return next
	}
}

// run iterates to convergence and returns the iteration count.
func (f *fixpoint) run() (int, error) {
	c := f.c
	f.edgeIdx = make([]*relation.Index, c.P())
	f.cands = make([]*relation.Relation, c.P())
	f.candSets = make([]relation.RowSet, c.P())
	candName, probeCols := f.label+":cand", []int{f.probeCol}
	defer c.DeleteAll(candName)
	// Each server's delta size is its vote to halt, summed by an
	// exchange that rides the barrier of the round the delta came from;
	// the first also sums the edges' sizes for a defensive cap: each
	// iteration either adds an output tuple or improves a label, both
	// bounded far below it. Hitting the cap means a kernel bug, not a
	// slow input.
	votes := func(s *mpc.Server, w []int64) {
		w[0] += int64(s.Len(f.delta))
		if len(w) > 1 {
			w[1] += int64(s.Len(f.edge))
		}
	}
	n := c.Exchange(f.delta, 2, false, votes)
	maxIter := 2*(n[0]+n[1]+int64(c.P())) + 4
	iters := 0
	// A failed round runs nothing, so the delta would never shrink.
	for delta := n[0]; c.Err() == nil && delta > 0; delta = c.Exchange(f.delta, 1, false, votes)[0] {
		if int64(iters) >= maxIter {
			return iters, fmt.Errorf("recursive: %s did not converge after %d iterations", f.label, iters)
		}
		iters++
		c.Round(f.label+":extend", func(s *mpc.Server, out *mpc.Out) {
			st := out.Open(candName, f.attrs...)
			delta := s.RelOrEmpty(f.delta, f.attrs...)
			if delta.Len() == 0 {
				return
			}
			sid := s.ID()
			edge := s.RelOrEmpty(f.edge, f.edgeAttrs...)
			if f.edgeIdx[sid] == nil {
				f.edgeIdx[sid] = relation.BuildIndex(edge, f.edgeAttrs[:1])
				f.cands[sid] = relation.New(candName, f.attrs...)
			}
			idx, cands, set := f.edgeIdx[sid], f.cands[sid], &f.candSets[sid]
			cands.Reset()
			set.Reset()
			cand := make([]relation.Value, len(f.attrs))
			for i := 0; i < delta.Len(); i++ {
				pr := delta.Row(i)
				for _, j := range idx.Lookup(pr, probeCols) {
					f.extend(pr, edge.Row(int(j)), cand)
					if f.combine == nil {
						set.Add(cands, cand)
					} else {
						cands.AppendRow(cand)
					}
				}
			}
			if f.combine != nil {
				cands = f.combine(cands)
			}
			st.SendByHash(cands, probeCols, f.layout)
		})
		c.LocalStep(func(s *mpc.Server) {
			cands := s.RelOrEmpty(candName, f.attrs...)
			s.Put(f.absorb(s, cands))
			// Emptied, not deleted: the next extend round lands its
			// candidates into the storage this one grew.
			cands.Reset()
		})
	}
	c.Note("%s converged after %d iterations", f.label, iters)
	return iters, nil
}
