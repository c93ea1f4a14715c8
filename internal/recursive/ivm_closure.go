package recursive

import (
	"fmt"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
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
	c        *mpc.Cluster
	name     string
	attrs    []string // binary edge/closure schema
	edgeName string
	layout   uint64 // mpc.HashSeed(query seed, attrs[0])

	// Per-server membership indexes the view holds outside the
	// fragments, keyed by the binary tuple itself. Safe under fault
	// injection: computes run exactly once, only delivery is replayed.
	eIdx []map[pair]struct{} // edges, at partition servers
	tIdx []map[pair]struct{} // closure tuples, at owner servers

	batches int
}

// toCol selects a closure tuple's to-column: it owns the tuple and is
// the value the tuple probes the edges with.
var toCol = []int{1}

// pair is a binary tuple as a map key: [2]relation.Value(row) for a
// binary row.
type pair = [2]relation.Value

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
		c:        c,
		name:     outName,
		attrs:    append([]string(nil), attrs...),
		edgeName: outName + ":edge",
		layout:   mpc.HashSeed(seed, attrs[0]),
		eIdx:     make([]map[pair]struct{}, c.P()),
		tIdx:     make([]map[pair]struct{}, c.P()),
	}
	start := c.Metrics().Rounds()

	e := edges.Project(v.edgeName, attrs...)
	e.Dedup()
	c.ScatterByHash(e, attrs[:1], v.layout)

	t0 := edges.Project(outName, attrs...)
	t0.Dedup()
	c.ScatterByHash(t0, attrs[1:], v.layout)
	c.ScatterByHash(t0.Project(outName+":delta", attrs...), attrs[1:], v.layout)

	c.LocalStep(func(s *mpc.Server) {
		sid := s.ID()
		v.eIdx[sid] = keySet(s.RelOrEmpty(v.edgeName, attrs...))
		v.tIdx[sid] = keySet(s.RelOrEmpty(outName, attrs...))
	})

	iters, err := v.runFix(outName, outName+":delta", outName, v.tIdx, nil)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Iterations: iters, Rounds: c.Metrics().Rounds() - start, OutSize: c.TotalLen(outName)}
	return v, res, nil
}

// netFold reduces a scattered ops fragment to its net tuple-level
// effect against the base membership index: returns the net deletions
// and net insertions in first-touch batch order.
func netFold(s *mpc.Server, opsName string, idx map[pair]struct{}) (dels, inss []pair) {
	o := s.RelOrEmpty(opsName, "o", "c0", "c1")
	type ent struct {
		row         pair
		init, final bool
	}
	var ents []ent
	at := map[pair]int{} // tuple -> its entry in ents
	for i := 0; i < o.Len(); i++ {
		row := o.Row(i)
		k := pair(row[1:])
		j, ok := at[k]
		if !ok {
			_, present := idx[k]
			j = len(ents)
			at[k] = j
			ents = append(ents, ent{row: k, init: present})
		}
		ents[j].final = row[0] == 1
	}
	for _, e := range ents {
		switch {
		case e.init && !e.final:
			dels = append(dels, e.row)
		case !e.init && e.final:
			inss = append(inss, e.row)
		}
	}
	return dels, inss
}

// keySet indexes a binary fragment's tuples (membership only — map
// order is never used for emission).
func keySet(r *relation.Relation) map[pair]struct{} {
	m := make(map[pair]struct{}, r.Len())
	for i := 0; i < r.Len(); i++ {
		m[pair(r.Row(i))] = struct{}{}
	}
	return m
}

// runFix drives one set-semantics closure fixpoint: candidates
// (x, y)+(y, z) -> (x, z) are absorbed into the target fragment when
// they pass the accept filter and are not yet in tgtIdx.
func (v *ClosureView) runFix(label, deltaName, target string, tgtIdx []map[pair]struct{}, accept func(sid int, k pair) bool) (int, error) {
	f := &fixpoint{
		c: v.c, label: label,
		delta: deltaName, attrs: v.attrs,
		edge: v.edgeName, edgeAttrs: v.attrs, layout: v.layout, probeCol: 1,
		extend: func(probe, edge, cand []relation.Value) {
			cand[0], cand[1] = probe[0], edge[1]
		},
		combine: dedupCombine,
		absorb: func(s *mpc.Server, cands *relation.Relation) *relation.Relation {
			sid := s.ID()
			t := s.RelOrEmpty(target, v.attrs...)
			next := relation.New(deltaName, v.attrs...)
			next.Grow(cands.Words())
			for i := 0; i < cands.Len(); i++ {
				row := cands.Row(i)
				k := pair(row)
				if accept != nil && !accept(sid, k) {
					continue
				}
				if _, in := tgtIdx[sid][k]; in {
					continue
				}
				tgtIdx[sid][k] = struct{}{}
				t.AppendRow(row)
				next.AppendRow(row)
			}
			s.Put(t)
			return next
		},
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
// an empty net batch costs zero metered rounds.
func (v *ClosureView) ApplyBatch(ops []EdgeOp) (*BatchStats, error) {
	c := v.c
	v.batches++
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
		dels, inss := netFold(s, opsName, v.eIdx[s.ID()])
		dr, ir := relation.New(delName, attrs...), relation.New(insName, attrs...)
		for _, d := range dels {
			dr.AppendRow(d[:])
		}
		for _, a := range inss {
			ir.AppendRow(a[:])
		}
		s.Put(dr)
		s.Put(ir)
		s.Delete(opsName)
	})

	stats := &BatchStats{}
	if c.TotalLen(delName) > 0 {
		if err := v.applyDeletes(delName, stats); err != nil {
			return nil, err
		}
	}
	sizeMid := c.TotalLen(v.name)
	if c.TotalLen(insName) > 0 {
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
	return stats, nil
}

// applyDeletes runs the DRed delete half: over-delete then rederive.
func (v *ClosureView) applyDeletes(delName string, stats *BatchStats) error {
	c := v.c
	attrs := v.attrs
	p := c.P()
	trace.Annotatef(c, "%s batch %d: over-delete |dE|=%d", v.name, v.batches, c.TotalLen(delName))

	// Over-delete seed: the T ⋈ dE- one-step extensions and the
	// deleted edges themselves (every deleted edge is a deleted
	// closure tuple).
	dseed := v.name + ":dseed"
	c.Round(v.name+":delseed", func(s *mpc.Server, out *mpc.Out) {
		v.sendSeeds(s, out.Open(dseed, attrs...), delName)
	})

	// Absorb the seed into the over-delete set D (closure tuples only).
	dName, dDelta := v.name+":D", v.name+":Ddelta"
	dIdx := make([]map[pair]struct{}, p)
	c.LocalStep(func(s *mpc.Server) {
		sid := s.ID()
		dIdx[sid] = map[pair]struct{}{}
		cands := s.RelOrEmpty(dseed, attrs...)
		d := relation.New(dName, attrs...)
		delta := relation.New(dDelta, attrs...)
		for i := 0; i < cands.Len(); i++ {
			row := cands.Row(i)
			k := pair(row)
			if _, in := v.tIdx[sid][k]; !in {
				continue
			}
			if _, in := dIdx[sid][k]; in {
				continue
			}
			dIdx[sid][k] = struct{}{}
			d.AppendRow(row)
			delta.AppendRow(row)
		}
		s.Put(d)
		s.Put(delta)
		s.Delete(dseed)
	})

	// Over-delete fixpoint over the OLD edges: anything derivable from
	// an over-deleted prefix is over-deleted too.
	iters, err := v.runFix(v.name+":del", dDelta, dName, dIdx, func(sid int, k pair) bool {
		_, in := v.tIdx[sid][k]
		return in
	})
	if err != nil {
		return err
	}
	stats.Iterations += iters

	// Apply: E := E - dE- at the partitions, T := T - D at the owners.
	c.LocalStep(func(s *mpc.Server) {
		sid := s.ID()
		if dels := s.RelOrEmpty(delName, attrs...); dels.Len() > 0 {
			for i := 0; i < dels.Len(); i++ {
				delete(v.eIdx[sid], pair(dels.Row(i)))
			}
			e := s.RelOrEmpty(v.edgeName, attrs...)
			ne := relation.New(v.edgeName, attrs...)
			for i := 0; i < e.Len(); i++ {
				if _, in := v.eIdx[sid][pair(e.Row(i))]; in {
					ne.AppendRow(e.Row(i))
				}
			}
			s.Put(ne)
		}
		if len(dIdx[sid]) > 0 {
			t := s.RelOrEmpty(v.name, attrs...)
			nt := relation.New(v.name, attrs...)
			for i := 0; i < t.Len(); i++ {
				k := pair(t.Row(i))
				if _, in := dIdx[sid][k]; in {
					delete(v.tIdx[sid], k)
					continue
				}
				nt.AppendRow(t.Row(i))
			}
			s.Put(nt)
		}
	})

	if c.TotalLen(dName) > 0 {
		if err := v.rederive(dName, dIdx, stats); err != nil {
			return err
		}
	}
	c.LocalStep(func(s *mpc.Server) { s.Delete(dName) })
	return nil
}

// rederive restores over-deleted closure tuples that still have a
// derivation from the surviving closure and the updated edges.
func (v *ClosureView) rederive(dName string, dIdx []map[pair]struct{}, stats *BatchStats) error {
	c := v.c
	attrs := v.attrs
	trace.Annotatef(c, "%s batch %d: rederive |D|=%d", v.name, v.batches, c.TotalLen(dName))

	// Seeds of the restricted fixpoint: (a) over-deleted tuples that
	// are still edges, and (b) one-step extensions T'(x, y) * E1(y, z)
	// of surviving closure tuples whose source x lost tuples. (a) needs
	// the D tuples at their edge partitions; (b) needs the distinct
	// sources pi_x(D) everywhere, and then joins T' with the local E1.
	dxB, dprobe := v.name+":dx", v.name+":dprobe"
	c.Round(v.name+":redprep", func(s *mpc.Server, out *mpc.Out) {
		stx := out.Open(dxB, attrs[:1]...)
		stp := out.Open(dprobe, attrs...)
		d := s.RelOrEmpty(dName, attrs...)
		seen := map[relation.Value]struct{}{}
		for i := 0; i < d.Len(); i++ {
			row := d.Row(i)
			if _, ok := seen[row[0]]; !ok {
				seen[row[0]] = struct{}{}
				stx.Broadcast(row[0])
			}
		}
		stp.SendByHash(d, []int{0}, v.layout)
	})
	rseed := v.name + ":rseed"
	c.Round(v.name+":redprobe", func(s *mpc.Server, out *mpc.Out) {
		sid := s.ID()
		st := out.Open(rseed, attrs...)
		dp := s.RelOrEmpty(dprobe, attrs...)
		for i := 0; i < dp.Len(); i++ {
			row := dp.Row(i)
			if _, in := v.eIdx[sid][pair(row)]; in {
				st.SendRow(v.owner(row), row)
			}
		}
		s.Delete(dprobe)
		dx := s.RelOrEmpty(dxB, attrs[:1]...)
		xs := make(map[relation.Value]struct{}, dx.Len())
		for i := 0; i < dx.Len(); i++ {
			xs[dx.Row(i)[0]] = struct{}{}
		}
		s.Delete(dxB)
		t := s.RelOrEmpty(v.name, attrs...)
		var ix *relation.Index
		e := s.RelOrEmpty(v.edgeName, attrs...)
		for i := 0; i < t.Len(); i++ {
			tr := t.Row(i)
			if _, ok := xs[tr[0]]; !ok {
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
		sid := s.ID()
		cands := s.RelOrEmpty(rseed, attrs...)
		t := s.RelOrEmpty(v.name, attrs...)
		delta := relation.New(rDelta, attrs...)
		for i := 0; i < cands.Len(); i++ {
			row := cands.Row(i)
			k := pair(row)
			if _, in := dIdx[sid][k]; !in {
				continue
			}
			if _, in := v.tIdx[sid][k]; in {
				continue
			}
			v.tIdx[sid][k] = struct{}{}
			t.AppendRow(row)
			delta.AppendRow(row)
		}
		s.Put(t)
		s.Put(delta)
		s.Delete(rseed)
	})
	iters, err := v.runFix(v.name+":red", rDelta, v.name, v.tIdx, func(sid int, k pair) bool {
		_, in := dIdx[sid][k]
		return in
	})
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
	trace.Annotatef(c, "%s batch %d: insert |dE|=%d", v.name, v.batches, c.TotalLen(insName))

	// Apply dE+ to the edge partitions first: propagation must run
	// over the updated edges so chains among new edges close.
	c.LocalStep(func(s *mpc.Server) {
		sid := s.ID()
		ins := s.RelOrEmpty(insName, attrs...)
		if ins.Len() == 0 {
			return
		}
		e := s.RelOrEmpty(v.edgeName, attrs...)
		for i := 0; i < ins.Len(); i++ {
			row := ins.Row(i)
			k := pair(row)
			if _, in := v.eIdx[sid][k]; !in {
				v.eIdx[sid][k] = struct{}{}
				e.AppendRow(row)
			}
		}
		s.Put(e)
	})

	iseed := v.name + ":iseed"
	c.Round(v.name+":insseed", func(s *mpc.Server, out *mpc.Out) {
		v.sendSeeds(s, out.Open(iseed, attrs...), insName)
	})

	iDelta := v.name + ":idelta"
	c.LocalStep(func(s *mpc.Server) {
		sid := s.ID()
		cands := s.RelOrEmpty(iseed, attrs...)
		t := s.RelOrEmpty(v.name, attrs...)
		delta := relation.New(iDelta, attrs...)
		for i := 0; i < cands.Len(); i++ {
			row := cands.Row(i)
			k := pair(row)
			if _, in := v.tIdx[sid][k]; in {
				continue
			}
			v.tIdx[sid][k] = struct{}{}
			t.AppendRow(row)
			delta.AppendRow(row)
		}
		s.Put(t)
		s.Put(delta)
		s.Delete(iseed)
	})
	iters, err := v.runFix(v.name+":ins", iDelta, v.name, v.tIdx, nil)
	if err != nil {
		return err
	}
	stats.Iterations += iters
	return nil
}
