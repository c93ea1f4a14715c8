package recursive

import (
	"fmt"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// TransitiveClosure computes the transitive closure of the binary edge
// relation into the distributed relation outName (same schema as
// edges, set semantics): path(x, z) :- edge(x, z); path(x, z) :-
// path(x, y), edge(y, z). It is the one-shot form of NewClosureView.
func TransitiveClosure(c *mpc.Cluster, edges *relation.Relation, outName string, seed uint64) (*Result, error) {
	_, res, err := newClosure(c, edges, outName, seed)
	return res, err
}

// Reachable computes the set of vertices reachable from the source
// vertices (sources included) over the directed binary edge relation,
// into the unary distributed relation outName.
func Reachable(c *mpc.Cluster, edges *relation.Relation, sources []relation.Value, outName string, seed uint64) (*Result, error) {
	if edges.Arity() != 2 {
		return nil, fmt.Errorf("recursive: Reachable wants a binary edge relation, got arity %d", edges.Arity())
	}
	attrs := edges.Attrs()
	vAttr := attrs[0]
	edgeSeed, ownerSeed := mix(seed, 1), mix(seed, 2)
	start := c.Metrics().Rounds()
	edgeName, deltaName := outName+":edge", outName+":delta"

	e := edges.Project(edgeName, attrs...)
	e.Dedup()
	c.ScatterByHash(e, attrs[:1], edgeSeed)

	t0 := relation.New(outName, vAttr)
	for _, v := range sources {
		t0.AppendRow([]relation.Value{v})
	}
	t0.Dedup()
	c.ScatterByHash(t0, []string{vAttr}, ownerSeed)
	c.ScatterByHash(t0.Project(deltaName, vAttr), []string{vAttr}, ownerSeed)

	// Per-server membership index over the accumulator fragment.
	seen := make([]map[relation.Value]struct{}, c.P())
	c.LocalStep(func(s *mpc.Server) {
		t := s.RelOrEmpty(outName, vAttr)
		m := make(map[relation.Value]struct{}, t.Len())
		for i := 0; i < t.Len(); i++ {
			m[t.Row(i)[0]] = struct{}{}
		}
		seen[s.ID()] = m
	})

	f := &fixpoint{
		c: c, label: outName,
		delta: deltaName, deltaAttrs: []string{vAttr}, candAttrs: []string{vAttr},
		edge: edgeName, edgeAttrs: attrs, edgeSeed: edgeSeed,
		probeCol: 0, ownerCols: []int{0}, ownerSeed: ownerSeed,
		extend: func(probe, edge, cand []relation.Value) {
			cand[0] = edge[1]
		},
		combine: dedupCombine,
		absorb: func(s *mpc.Server, cands *relation.Relation) *relation.Relation {
			m := seen[s.ID()]
			t := s.RelOrEmpty(outName, vAttr)
			next := relation.New(deltaName, vAttr)
			for i := 0; i < cands.Len(); i++ {
				v := cands.Row(i)[0]
				if _, ok := m[v]; ok {
					continue
				}
				m[v] = struct{}{}
				t.AppendRow([]relation.Value{v})
				next.AppendRow([]relation.Value{v})
			}
			s.Put(t)
			return next
		},
	}
	iters, err := f.run()
	if err != nil {
		return nil, err
	}
	return &Result{OutName: outName, Iterations: iters, Rounds: c.Metrics().Rounds() - start, OutSize: c.TotalLen(outName)}, nil
}

// ConnectedComponents labels every vertex of the undirected view of
// edges with the minimum vertex id of its connected component, into
// the distributed relation outName with schema (v, comp). Candidates
// are reduced by per-key min both before shipping and at the owner,
// which updates labels in place and re-emits only improved vertices as
// the next delta.
func ConnectedComponents(c *mpc.Cluster, edges *relation.Relation, outName string, seed uint64) (*Result, error) {
	if edges.Arity() != 2 {
		return nil, fmt.Errorf("recursive: ConnectedComponents wants a binary edge relation, got arity %d", edges.Arity())
	}
	attrs := edges.Attrs()
	outAttrs := []string{"v", "comp"}
	edgeSeed, ownerSeed := mix(seed, 1), mix(seed, 2)
	start := c.Metrics().Rounds()
	edgeName, deltaName := outName+":edge", outName+":delta"

	// Symmetrize: labels propagate along edges in both directions.
	sym := edges.Project(edgeName, attrs...)
	for i := 0; i < edges.Len(); i++ {
		e := edges.Row(i)
		sym.AppendRow([]relation.Value{e[1], e[0]})
	}
	sym.Dedup()
	c.ScatterByHash(sym, attrs[:1], edgeSeed)

	// Every vertex starts labelled with itself, in first-appearance
	// scan order.
	t0 := relation.New(outName, outAttrs...)
	vs := map[relation.Value]struct{}{}
	for i := 0; i < edges.Len(); i++ {
		for _, v := range edges.Row(i) {
			if _, ok := vs[v]; !ok {
				vs[v] = struct{}{}
				t0.AppendRow([]relation.Value{v, v})
			}
		}
	}
	c.ScatterByHash(t0, outAttrs[:1], ownerSeed)
	c.ScatterByHash(t0.Project(deltaName, outAttrs...), outAttrs[:1], ownerSeed)

	// Per-server position index: vertex -> row in the label fragment,
	// so absorb can update labels through the mutable Row view.
	pos := make([]map[relation.Value]int, c.P())
	c.LocalStep(func(s *mpc.Server) {
		t := s.RelOrEmpty(outName, outAttrs...)
		m := make(map[relation.Value]int, t.Len())
		for i := 0; i < t.Len(); i++ {
			m[t.Row(i)[0]] = i
		}
		pos[s.ID()] = m
	})

	f := &fixpoint{
		c: c, label: outName,
		delta: deltaName, deltaAttrs: outAttrs, candAttrs: outAttrs,
		edge: edgeName, edgeAttrs: attrs, edgeSeed: edgeSeed,
		probeCol: 0, ownerCols: []int{0}, ownerSeed: ownerSeed,
		extend: func(probe, edge, cand []relation.Value) {
			cand[0], cand[1] = edge[1], probe[1] // neighbour inherits the candidate label
		},
		combine: func(cands *relation.Relation) *relation.Relation {
			// Per-vertex min label, emitted in first-appearance order.
			min := map[relation.Value]relation.Value{}
			var order []relation.Value
			for i := 0; i < cands.Len(); i++ {
				row := cands.Row(i)
				if cur, ok := min[row[0]]; !ok {
					min[row[0]] = row[1]
					order = append(order, row[0])
				} else if row[1] < cur {
					min[row[0]] = row[1]
				}
			}
			out := relation.New(cands.Name(), cands.Attrs()...)
			for _, v := range order {
				out.AppendRow([]relation.Value{v, min[v]})
			}
			return out
		},
		absorb: func(s *mpc.Server, cands *relation.Relation) *relation.Relation {
			m := pos[s.ID()]
			t := s.RelOrEmpty(outName, outAttrs...)
			improved := map[relation.Value]struct{}{}
			var order []relation.Value
			for i := 0; i < cands.Len(); i++ {
				row := cands.Row(i)
				ri, ok := m[row[0]]
				if !ok || row[1] >= t.Row(ri)[1] {
					continue
				}
				t.Row(ri)[1] = row[1]
				if _, dup := improved[row[0]]; !dup {
					improved[row[0]] = struct{}{}
					order = append(order, row[0])
				}
			}
			next := relation.New(deltaName, outAttrs...)
			for _, v := range order {
				next.AppendRow([]relation.Value{v, t.Row(m[v])[1]})
			}
			s.Put(t)
			return next
		},
	}
	iters, err := f.run()
	if err != nil {
		return nil, err
	}
	return &Result{OutName: outName, Iterations: iters, Rounds: c.Metrics().Rounds() - start, OutSize: c.TotalLen(outName)}, nil
}
