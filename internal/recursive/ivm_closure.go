package recursive

import (
	"fmt"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// EdgeOp is one edge-level mutation of a standing closure view,
// applied with set semantics (inserting a present edge or deleting an
// absent one is a no-op).
type EdgeOp struct {
	Insert   bool
	From, To relation.Value
}

// ClosureView is a standing transitive closure maintained
// incrementally under edge insert/delete batches by
// delete-and-rederive (DRed): deletions first over-delete every
// closure tuple with at least one derivation through a deleted edge
// (a fixpoint over the old edges), then rederive the subset with a
// surviving alternative derivation (a fixpoint restricted to the
// over-deleted set); insertions run a semi-naive fixpoint seeded from
// the new edges and their one-step joins with the surviving closure.
// Only the affected deltas are recomputed; the maintained view is
// asserted (by the testkit harness) equal to recomputation from
// scratch.
//
// Every tuple lives at the hash of one value under the fixpoint's one
// layout, mpc.HashSeed(seed, the edges' source attribute): an edge
// (y, z) at h(y), a closure tuple (x, y) at h(y). So a closure tuple
// sits with the edges it extends along, and T ⋈ dE joins need no
// broadcast.
type ClosureView struct {
	c      *mpc.Cluster
	name   string
	attrs  []string // binary edge/closure schema
	layout uint64   // mpc.HashSeed(query seed, attrs[0])

	// The edge and closure fragments with the row sets the view keeps
	// over them on the driver. Safe under fault injection: computes run
	// exactly once, only delivery is replayed.
	e indexed // edges, at partition servers
	t indexed // closure tuples, at owner servers
}

// toCol selects a closure tuple's to-column: it owns the tuple and is
// the value the tuple probes the edges with.
var toCol = []int{1}

// NewClosureView evaluates the initial closure of edges into outName
// and returns the view handle for incremental maintenance plus the
// evaluation Result.
func NewClosureView(c *mpc.Cluster, edges *relation.Relation, outName string, seed uint64) (*ClosureView, *Result, error) {
	return newClosure(c, edges, outName, seed)
}

func newClosure(c *mpc.Cluster, edges *relation.Relation, outName string, seed uint64) (*ClosureView, *Result, error) {
	if edges.Arity() != 2 {
		return nil, nil, fmt.Errorf("recursive: closure wants a binary edge relation, got arity %d", edges.Arity())
	}
	attrs := edges.Attrs()
	v := &ClosureView{
		c:      c,
		name:   outName,
		attrs:  append([]string(nil), attrs...),
		layout: mpc.HashSeed(seed, attrs[0]),
		e:      newIndexed(outName+":edge", c.P()),
		t:      newIndexed(outName, c.P()),
	}
	start := c.Metrics().Rounds()

	e := edges.Rename(v.e.name)
	c.ScatterByHash(e, attrs[:1], v.layout)

	t0 := e.Rename(outName)
	c.ScatterByHash(t0, attrs[1:], v.layout)
	c.ScatterByHash(t0.Project(outName+":delta", attrs...), attrs[1:], v.layout)

	c.LocalStep(func(s *mpc.Server) {
		for _, x := range []indexed{v.e, v.t} {
			rel, set := x.at(s, attrs)
			set.Build(rel)
		}
	})

	iters, err := v.runFix(outName, outName+":delta", v.t, nil)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Iterations: iters, Rounds: c.Metrics().Rounds() - start, OutSize: c.TotalLen(outName)}
	return v, res, nil
}

// netFold reduces a scattered ops fragment to its net tuple-level
// effect against the edge fragment e, indexed by eSet: the net
// deletions and net insertions, each in first-touch batch order, as
// relations of e's schema named delName and insName.
func netFold(s *mpc.Server, opsName string, e *relation.Relation, eSet *relation.RowSet, delName, insName string) (dels, inss *relation.Relation) {
	o := s.RelOrEmpty(opsName, "o", "c0", "c1")
	attrs := e.Attrs()
	touched := relation.New(opsName, attrs...) // each tuple once, in first-touch order
	var set relation.RowSet
	var init, final []bool // per touched tuple: in e before the batch, and after it
	for i := 0; i < o.Len(); i++ {
		row := o.Row(i)
		j, added := set.Add(touched, row[1:])
		if added {
			init = append(init, eSet.Has(e, row[1:]))
			final = append(final, false)
		}
		final[j] = row[0] == 1
	}
	dels, inss = relation.New(delName, attrs...), relation.New(insName, attrs...)
	for j := range init {
		switch {
		case init[j] && !final[j]:
			dels.AppendRow(touched.Row(j))
		case !init[j] && final[j]:
			inss.AppendRow(touched.Row(j))
		}
	}
	return dels, inss
}

// runFix drives one set-semantics closure fixpoint: candidates
// (x, y)+(y, z) -> (x, z) are absorbed into target when within (if not
// nil) holds them and target does not yet.
func (v *ClosureView) runFix(label, deltaName string, target indexed, within *indexed) (int, error) {
	f := &fixpoint{
		c: v.c, label: label,
		delta: deltaName, attrs: v.attrs,
		edge: v.e.name, edgeAttrs: v.attrs, layout: v.layout, probeCol: 1,
		extend: func(probe, edge, cand []relation.Value) {
			cand[0], cand[1] = probe[0], edge[1]
		},
		absorb: absorbSet(target, within, deltaName, v.attrs),
	}
	return f.run()
}

// owner routes a binary tuple to its owner server, h(to-column). A
// one-step extension (x, y)+(y, z) -> (x, z) goes where the edge (y, z)
// would as a closure tuple, so owner(edge row) routes it.
func (v *ClosureView) owner(row []relation.Value) int {
	return mpc.Owner(row, toCol, v.layout, v.c.P())
}

// sendSeeds sends the changed edges of the local fragment dName, and
// their one-step extensions T(x, y) ⋈ dE(y, z) of the local closure
// fragment, to their owners. Both fragments sit at h(y), so the join
// is local.
func (v *ClosureView) sendSeeds(s *mpc.Server, st *mpc.Stream, dName string) {
	d := s.RelOrEmpty(dName, v.attrs...)
	if d.Len() == 0 {
		return
	}
	dix := relation.BuildIndex(d, v.attrs[:1])
	t := s.RelOrEmpty(v.name, v.attrs...)
	for i := 0; i < t.Len(); i++ {
		tr := t.Row(i)
		for _, j := range dix.Lookup(tr, toCol) {
			dr := d.Row(int(j))
			st.Send(v.owner(dr), tr[0], dr[1])
		}
	}
	st.SendByHash(d, toCol, v.layout)
}

// ApplyBatch applies a batch of edge mutations to the standing view,
// recomputing only the affected deltas. The batch is folded to its net
// effect first (delete-then-reinsert of the same edge is a no-op), so
// an empty net batch costs zero metered rounds. On a cluster that has
// failed a round, or fails one in the batch, it returns the cluster's Err.
func (v *ClosureView) ApplyBatch(ops []EdgeOp) (*BatchStats, error) {
	c := v.c
	if err := c.Err(); err != nil {
		return nil, err
	}
	attrs := v.attrs
	start := c.Metrics().Rounds()
	sizeBefore := c.TotalLen(v.name)

	// Net-effect fold, co-located with the edge partitions.
	opsName := v.name + ":ops"
	opsRel := relation.New(opsName, "o", "c0", "c1")
	for _, op := range ops {
		flag := relation.Value(0)
		if op.Insert {
			flag = 1
		}
		opsRel.AppendRow([]relation.Value{flag, op.From, op.To})
	}
	// Column c0 carries the edge's from-value: hashing it under
	// the layout lands each op on the server partitioning that edge.
	c.ScatterByHash(opsRel, []string{"c0"}, v.layout)
	delName, insName := v.name+":edel", v.name+":eins"
	c.LocalStep(func(s *mpc.Server) {
		e, eSet := v.e.at(s, attrs)
		dels, inss := netFold(s, opsName, e, eSet, delName, insName)
		s.Put(dels)
		s.Put(inss)
		s.Delete(opsName)
	})

	// The net batch's sizes ride the last round's barrier: every server
	// knows its own fold.
	n := c.Exchange(opsName, 2, false, func(s *mpc.Server, w []int64) {
		w[0] += int64(s.Len(delName))
		w[1] += int64(s.Len(insName))
	})
	stats := &BatchStats{}
	if n[0] > 0 {
		if err := v.applyDeletes(delName, stats); err != nil {
			return nil, err
		}
	}
	sizeMid := c.TotalLen(v.name)
	if n[1] > 0 {
		if err := v.applyInserts(insName, stats); err != nil {
			return nil, err
		}
	}
	c.LocalStep(func(s *mpc.Server) {
		s.Delete(delName)
		s.Delete(insName)
	})
	stats.Rounds = c.Metrics().Rounds() - start
	stats.Deleted = sizeBefore - sizeMid
	stats.Inserted = c.TotalLen(v.name) - sizeMid
	if err := c.Err(); err != nil {
		return nil, err
	}
	return stats, nil
}

// applyDeletes runs the DRed delete half: over-delete then rederive.
func (v *ClosureView) applyDeletes(delName string, stats *BatchStats) error {
	c := v.c
	attrs := v.attrs

	// Over-delete seed: the T ⋈ dE- one-step extensions and the
	// deleted edges themselves (every deleted edge is a deleted
	// closure tuple).
	dseed := v.name + ":dseed"
	c.Round(v.name+":delseed", func(s *mpc.Server, out *mpc.Out) {
		v.sendSeeds(s, out.Open(dseed, attrs...), delName)
	})

	// Absorb the seed into the over-delete set D (closure tuples only).
	dDelta := v.name + ":Ddelta"
	d := newIndexed(v.name+":D", c.P())
	c.LocalStep(func(s *mpc.Server) {
		t, tSet := v.t.at(s, attrs)
		dr, dSet := d.at(s, attrs)
		inT := func(row []relation.Value) bool { return tSet.Has(t, row) }
		s.Put(absorbNew(dr, dSet, s.RelOrEmpty(dseed, attrs...), inT, dDelta))
		s.Put(dr)
		s.Delete(dseed)
	})

	// Over-delete fixpoint over the OLD edges: anything derivable from
	// an over-deleted prefix is over-deleted too.
	iters, err := v.runFix(v.name+":del", dDelta, d, &v.t)
	if err != nil {
		return err
	}
	stats.Iterations += iters

	// Apply: E := E - dE- at the partitions, T := T - D at the owners.
	// Each compaction rebuilds the row set over the compacted fragment.
	c.LocalStep(func(s *mpc.Server) {
		if dels := s.RelOrEmpty(delName, attrs...); dels.Len() > 0 {
			var delSet relation.RowSet
			delSet.Build(dels)
			compact(s, v.e, attrs, dels, &delSet)
		}
		if dr, dSet := d.at(s, attrs); dr.Len() > 0 {
			compact(s, v.t, attrs, dr, dSet)
		}
	})

	if c.Exchange(d.name, 1, false, func(s *mpc.Server, w []int64) { w[0] += int64(s.Len(d.name)) })[0] > 0 {
		if err := v.rederive(d, stats); err != nil {
			return err
		}
	}
	c.LocalStep(func(s *mpc.Server) { s.Delete(d.name) })
	return nil
}

// compact removes from server s's fragment of x every row that drop,
// indexed by dropSet, holds, and rebuilds x's row set over what is
// left.
func compact(s *mpc.Server, x indexed, attrs []string, drop *relation.Relation, dropSet *relation.RowSet) {
	rel, set := x.at(s, attrs)
	kept := relation.New(x.name, attrs...)
	for i := 0; i < rel.Len(); i++ {
		if row := rel.Row(i); !dropSet.Has(drop, row) {
			kept.AppendRow(row)
		}
	}
	set.Build(kept)
	s.Put(kept)
}

// rederive restores over-deleted closure tuples that still have a
// derivation from the surviving closure and the updated edges.
func (v *ClosureView) rederive(d indexed, stats *BatchStats) error {
	c := v.c
	attrs := v.attrs

	// Seeds of the restricted fixpoint: (a) over-deleted tuples that
	// are still edges, and (b) one-step extensions T'(x, y) * E1(y, z)
	// of surviving closure tuples whose source x lost tuples. (a) needs
	// the D tuples at their edge partitions; (b) needs the distinct
	// sources pi_x(D) everywhere, and then joins T' with the local E1.
	dxB, dprobe := v.name+":dx", v.name+":dprobe"
	c.Round(v.name+":redprep", func(s *mpc.Server, out *mpc.Out) {
		stx := out.Open(dxB, attrs[:1]...)
		stp := out.Open(dprobe, attrs...)
		dr := s.RelOrEmpty(d.name, attrs...)
		xs := relation.New(dxB, attrs[:1]...)
		var xSet relation.RowSet
		for i := 0; i < dr.Len(); i++ {
			xSet.Add(xs, dr.Row(i)[:1])
		}
		stx.BroadcastAll(xs)
		stp.SendByHash(dr, []int{0}, v.layout)
	})
	rseed := v.name + ":rseed"
	c.Round(v.name+":redprobe", func(s *mpc.Server, out *mpc.Out) {
		st := out.Open(rseed, attrs...)
		e, eSet := v.e.at(s, attrs)
		dp := s.RelOrEmpty(dprobe, attrs...)
		for i := 0; i < dp.Len(); i++ {
			if row := dp.Row(i); eSet.Has(e, row) {
				st.SendRow(v.owner(row), row)
			}
		}
		s.Delete(dprobe)
		dx := s.RelOrEmpty(dxB, attrs[:1]...)
		var xSet relation.RowSet
		xSet.Build(dx)
		s.Delete(dxB)
		t := s.RelOrEmpty(v.name, attrs...)
		var ix *relation.Index
		for i := 0; i < t.Len(); i++ {
			tr := t.Row(i)
			if !xSet.Has(dx, tr[:1]) {
				continue
			}
			if ix == nil {
				ix = relation.BuildIndex(e, attrs[:1])
			}
			for _, j := range ix.Lookup(tr, toCol) {
				er := e.Row(int(j))
				st.Send(v.owner(er), tr[0], er[1])
			}
		}
	})

	// Absorb the seeds (restricted to D, not yet back in T), then run
	// the restricted fixpoint over the updated edges.
	rDelta := v.name + ":rdelta"
	c.LocalStep(func(s *mpc.Server) {
		t, tSet := v.t.at(s, attrs)
		dr, dSet := d.at(s, attrs)
		inD := func(row []relation.Value) bool { return dSet.Has(dr, row) }
		s.Put(absorbNew(t, tSet, s.RelOrEmpty(rseed, attrs...), inD, rDelta))
		s.Put(t)
		s.Delete(rseed)
	})
	iters, err := v.runFix(v.name+":red", rDelta, v.t, &d)
	if err != nil {
		return err
	}
	stats.Iterations += iters
	return nil
}

// applyInserts adds the net-new edges and runs a semi-naive fixpoint
// seeded from them and their one-step joins with the standing closure.
func (v *ClosureView) applyInserts(insName string, stats *BatchStats) error {
	c := v.c
	attrs := v.attrs

	// Apply dE+ to the edge partitions first: propagation must run
	// over the updated edges so chains among new edges close.
	c.LocalStep(func(s *mpc.Server) {
		ins := s.RelOrEmpty(insName, attrs...)
		if ins.Len() == 0 {
			return
		}
		e, eSet := v.e.at(s, attrs)
		for i := 0; i < ins.Len(); i++ {
			eSet.Add(e, ins.Row(i))
		}
		s.Put(e)
	})

	iseed := v.name + ":iseed"
	c.Round(v.name+":insseed", func(s *mpc.Server, out *mpc.Out) {
		v.sendSeeds(s, out.Open(iseed, attrs...), insName)
	})

	iDelta := v.name + ":idelta"
	c.LocalStep(func(s *mpc.Server) {
		t, tSet := v.t.at(s, attrs)
		s.Put(absorbNew(t, tSet, s.RelOrEmpty(iseed, attrs...), nil, iDelta))
		s.Put(t)
		s.Delete(iseed)
	})
	iters, err := v.runFix(v.name+":ins", iDelta, v.t, nil)
	if err != nil {
		return err
	}
	stats.Iterations += iters
	return nil
}
