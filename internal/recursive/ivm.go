package recursive

import (
	"fmt"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// Op is one tuple-level mutation of a JoinView base relation, applied
// with set semantics.
type Op struct {
	Rel    string // base relation name as passed to NewJoinView
	Insert bool
	Row    []relation.Value
}

// JoinView is a standing two-way join R(x, y) |><| S(y, z) maintained
// incrementally: the bases are co-partitioned by the join value, and a
// mutation batch is folded to its net effect, turned into signed view
// deltas by the exact product rule
//
//	d(R |><| S) = dR |><| S_old  +  R_new |><| dS,
//
// and shipped to the view owners in ONE metered round — against the
// two rounds (plus full base reshuffle) of recomputation from
// scratch. Owners fold the signed deltas into per-tuple derivation
// counts; the testkit harness asserts the maintained view equal to
// recomputation on every generated workload.
type JoinView struct {
	c                   *mpc.Cluster
	name                string
	rName               string
	sName               string
	rAttrs              []string
	sAttrs              []string
	outAttrs            []string
	rFrag               string
	sFrag               string
	joinSeed, ownerSeed uint64

	// Per-server state the view holds outside the fragments, keyed by the
	// tuples themselves (safe under fault injection — computes run
	// exactly once, only delivery is replayed).
	rIdx, sIdx []map[pair]struct{}         // base membership at the co-partitions
	counts     []map[[3]relation.Value]int // derivation counts at the view owners

	batches int
}

var outCols = []int{0, 1, 2}

// NewJoinView evaluates the initial join of r and s into outName (one
// metered round) and returns the view handle plus the evaluation
// Result. r and s must be binary; the view schema (r.x, r.y, s.z)
// must have three distinct attribute names.
func NewJoinView(c *mpc.Cluster, r, s *relation.Relation, outName string, seed uint64) (*JoinView, *Result, error) {
	if r.Arity() != 2 || s.Arity() != 2 {
		return nil, nil, fmt.Errorf("recursive: JoinView wants binary bases, got arity %d and %d", r.Arity(), s.Arity())
	}
	outAttrs := []string{r.Attrs()[0], r.Attrs()[1], s.Attrs()[1]}
	if outAttrs[0] == outAttrs[2] || outAttrs[1] == outAttrs[2] {
		return nil, nil, fmt.Errorf("recursive: JoinView schema %v is not three distinct attributes", outAttrs)
	}
	p := c.P()
	v := &JoinView{
		c: c, name: outName,
		rName: r.Name(), sName: s.Name(),
		rAttrs:   append([]string(nil), r.Attrs()...),
		sAttrs:   append([]string(nil), s.Attrs()...),
		outAttrs: outAttrs,
		rFrag:    outName + ":R", sFrag: outName + ":S",
		joinSeed: mix(seed, 3), ownerSeed: mix(seed, 4),
		rIdx: make([]map[pair]struct{}, p), sIdx: make([]map[pair]struct{}, p),
		counts: make([]map[[3]relation.Value]int, p),
	}
	start := c.Metrics().Rounds()

	rc := r.Project(v.rFrag, r.Attrs()...)
	rc.Dedup()
	c.ScatterByHash(rc, v.rAttrs[1:2], v.joinSeed)
	sc := s.Project(v.sFrag, s.Attrs()...)
	sc.Dedup()
	c.ScatterByHash(sc, v.sAttrs[0:1], v.joinSeed)

	c.LocalStep(func(s *mpc.Server) {
		sid := s.ID()
		v.rIdx[sid] = keySet(s.RelOrEmpty(v.rFrag, v.rAttrs...))
		v.sIdx[sid] = keySet(s.RelOrEmpty(v.sFrag, v.sAttrs...))
	})

	// Initial evaluation: one round shipping each joined tuple to its
	// owner. Deduped binary bases make every (x, y, z) derivation
	// unique, so no local distinct pass is needed.
	c.Round(outName+":init", func(s *mpc.Server, out *mpc.Out) {
		st := out.Open(outName, outAttrs...)
		rf := s.RelOrEmpty(v.rFrag, v.rAttrs...)
		sf := s.RelOrEmpty(v.sFrag, v.sAttrs...)
		if rf.Len() == 0 || sf.Len() == 0 {
			return
		}
		ix := relation.BuildIndex(sf, v.sAttrs[0:1])
		row := make([]relation.Value, 3)
		for i := 0; i < rf.Len(); i++ {
			rr := rf.Row(i)
			for _, j := range ix.Lookup(rr, []int{1}) {
				row[0], row[1], row[2] = rr[0], rr[1], sf.Row(int(j))[1]
				st.SendRow(relation.Bucket(relation.HashRow(row, outCols, v.ownerSeed), p), row)
			}
		}
	})
	c.LocalStep(func(s *mpc.Server) {
		sid := s.ID()
		view := s.RelOrEmpty(outName, outAttrs...)
		m := make(map[[3]relation.Value]int, view.Len())
		for i := 0; i < view.Len(); i++ {
			m[[3]relation.Value(view.Row(i))] = 1
		}
		v.counts[sid] = m
		s.Put(view)
	})
	res := &Result{OutName: outName, Rounds: c.Metrics().Rounds() - start, OutSize: c.TotalLen(outName)}
	return v, res, nil
}

// ApplyBatch applies a batch of base mutations to the standing view in
// one metered round. The batch is folded per base tuple to its net
// effect first, so delete-then-reinsert of the same tuple ships
// nothing.
func (v *JoinView) ApplyBatch(ops []Op) (*BatchStats, error) {
	c := v.c
	v.batches++
	p := c.P()
	start := c.Metrics().Rounds()
	trace.Annotatef(c, "%s batch %d: %d ops", v.name, v.batches, len(ops))

	// Ops travel to the co-partition of their join value — column c1
	// for R (its y) and column c0 for S — preserving batch order.
	opsR := relation.New(v.name+":opsR", "o", "c0", "c1")
	opsS := relation.New(v.name+":opsS", "o", "c0", "c1")
	for _, op := range ops {
		if len(op.Row) != 2 {
			return nil, fmt.Errorf("recursive: op row arity %d, want 2", len(op.Row))
		}
		flag := relation.Value(0)
		if op.Insert {
			flag = 1
		}
		row := []relation.Value{flag, op.Row[0], op.Row[1]}
		switch op.Rel {
		case v.rName:
			opsR.AppendRow(row)
		case v.sName:
			opsS.AppendRow(row)
		default:
			return nil, fmt.Errorf("recursive: op against unknown base %q (view joins %q and %q)", op.Rel, v.rName, v.sName)
		}
	}
	c.ScatterByHash(opsR, []string{"c1"}, v.joinSeed)
	c.ScatterByHash(opsS, []string{"c0"}, v.joinSeed)

	candName := v.name + ":cand"
	candAttrs := []string{"o", "c0", "c1", "c2"}
	c.Round(v.name+":delta", func(s *mpc.Server, out *mpc.Out) {
		sid := s.ID()
		st := out.Open(candName, candAttrs...)
		send := func(sign, x, y, z relation.Value) {
			dst := relation.Bucket(relation.HashRow([]relation.Value{x, y, z}, outCols, v.ownerSeed), p)
			st.Send(dst, sign, x, y, z)
		}
		rf := s.RelOrEmpty(v.rFrag, v.rAttrs...)
		sf := s.RelOrEmpty(v.sFrag, v.sAttrs...)

		// dR against S_old, then apply dR; R_new against dS, then
		// apply dS — the exact product-rule order.
		dRm, dRp := netFold(s, v.name+":opsR", v.rIdx[sid])
		if len(dRm)+len(dRp) > 0 {
			ix := relation.BuildIndex(sf, v.sAttrs[0:1])
			for _, d := range dRm {
				for _, j := range ix.Lookup(d[:], []int{1}) {
					send(-1, d[0], d[1], sf.Row(int(j))[1])
				}
			}
			for _, d := range dRp {
				for _, j := range ix.Lookup(d[:], []int{1}) {
					send(1, d[0], d[1], sf.Row(int(j))[1])
				}
			}
			rf = applyNet(rf, dRm, dRp, v.rIdx[sid])
			s.Put(rf)
		}
		dSm, dSp := netFold(s, v.name+":opsS", v.sIdx[sid])
		if len(dSm)+len(dSp) > 0 {
			ix := relation.BuildIndex(rf, v.rAttrs[1:2])
			for _, d := range dSm {
				for _, j := range ix.Lookup(d[:], []int{0}) {
					send(-1, rf.Row(int(j))[0], d[0], d[1])
				}
			}
			for _, d := range dSp {
				for _, j := range ix.Lookup(d[:], []int{0}) {
					send(1, rf.Row(int(j))[0], d[0], d[1])
				}
			}
			sf = applyNet(sf, dSm, dSp, v.sIdx[sid])
			s.Put(sf)
		}
		s.Delete(v.name + ":opsR")
		s.Delete(v.name + ":opsS")
	})

	// Owners fold the signed deltas into derivation counts and patch
	// their view fragment: removed tuples are filtered out in place,
	// net-new tuples append in first-crossing delivery order.
	ins := make([]int, p)
	del := make([]int, p)
	c.LocalStep(func(s *mpc.Server) {
		sid := s.ID()
		cands := s.RelOrEmpty(candName, candAttrs...)
		m := v.counts[sid]
		before := map[[3]relation.Value]int{} // count before the batch, per touched tuple
		var order [][3]relation.Value
		for i := 0; i < cands.Len(); i++ {
			row := cands.Row(i)
			k := [3]relation.Value(row[1:])
			if _, ok := before[k]; !ok {
				before[k] = m[k]
				order = append(order, k)
			}
			m[k] += int(row[0])
		}
		var removed map[[3]relation.Value]struct{}
		var added [][3]relation.Value
		for _, k := range order {
			final := m[k]
			if final < 0 || final > 1 {
				panic(fmt.Sprintf("recursive: view %s derivation count %d for a set-semantics join", v.name, final))
			}
			switch {
			case before[k] > 0 && final == 0:
				if removed == nil {
					removed = map[[3]relation.Value]struct{}{}
				}
				removed[k] = struct{}{}
				delete(m, k)
			case before[k] == 0 && final > 0:
				added = append(added, k)
			default:
				if final == 0 {
					delete(m, k)
				}
			}
		}
		if len(removed) == 0 && len(added) == 0 {
			s.Delete(candName)
			return
		}
		view := s.RelOrEmpty(v.name, v.outAttrs...)
		next := relation.New(v.name, v.outAttrs...)
		for i := 0; i < view.Len(); i++ {
			if _, gone := removed[[3]relation.Value(view.Row(i))]; !gone {
				next.AppendRow(view.Row(i))
			}
		}
		for _, row := range added {
			next.AppendRow(row[:])
		}
		s.Put(next)
		ins[sid] = len(added)
		del[sid] = len(removed)
		s.Delete(candName)
	})

	stats := &BatchStats{Rounds: c.Metrics().Rounds() - start}
	for i := 0; i < p; i++ {
		stats.Inserted += ins[i]
		stats.Deleted += del[i]
	}
	return stats, nil
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

// applyNet rebuilds a base fragment under net deletions/insertions,
// preserving scan order, and updates the membership index.
func applyNet(frag *relation.Relation, dels, inss []pair, idx map[pair]struct{}) *relation.Relation {
	for _, d := range dels {
		delete(idx, d)
	}
	next := relation.New(frag.Name(), frag.Attrs()...)
	for i := 0; i < frag.Len(); i++ {
		if _, in := idx[pair(frag.Row(i))]; in {
			next.AppendRow(frag.Row(i))
		}
	}
	for _, a := range inss {
		idx[a] = struct{}{}
		next.AppendRow(a[:])
	}
	return next
}
