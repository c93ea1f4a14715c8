// Package yannakakis implements the Yannakakis algorithm for acyclic
// queries and its distributed variants (slides 64–95):
//
//   - Serial — the classical O(IN + OUT) three-phase algorithm (upward
//     semijoins, downward semijoins, bottom-up joins) on one machine.
//   - GYM — distributed Yannakakis: every semijoin and join becomes a
//     hash-partitioned MPC round with load O((IN+OUT)/p). The vanilla
//     variant runs one semijoin per round (r = O(n), slides 80–89); the
//     optimized variant runs each tree level's semijoins in parallel
//     with an intersection round and finishes with a one-round
//     HyperCube join phase (r = O(d), slides 90–94).
//   - IterativeBinaryJoin — the "what most systems do" baseline
//     (slide 57): a left-deep chain of parallel hash joins, one round
//     per join, whose intermediate results can explode on the inputs of
//     slide 63.
//   - GHDRun — executes any query from a width-w, depth-d generalized
//     hypertree decomposition: all bags are materialized with HyperCube
//     grids in one round, and the acyclic bag tree is then processed
//     with GYM — realizing the r = O(d), L = O((IN^w + OUT)/p)
//     trade-off of slide 95.
package yannakakis

import (
	"fmt"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// SerialStats reports the work done by a serial Yannakakis run.
type SerialStats struct {
	Semijoins       int
	Joins           int
	MaxIntermediate int // largest intermediate join result (≤ OUT when reduced)
}

// Serial runs the three-phase Yannakakis algorithm on a single machine.
// The query must be acyclic (pass its GYO join tree).
func Serial(jt *hypergraph.JoinTree, rels map[string]*relation.Relation) (*relation.Relation, *SerialStats) {
	q := jt.Query
	work := cost.BindAtoms(q, rels)
	st := &SerialStats{}
	cur := make([]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		cur[i] = work[a.Name]
	}
	// Upward: children reduce parents, deepest first.
	for _, i := range jt.PostOrder() {
		for _, ch := range jt.Children[i] {
			cur[i] = relation.Semijoin(q.Atoms[i].Name, cur[i], cur[ch])
			st.Semijoins++
		}
	}
	// Downward: parents reduce children, root first.
	for _, i := range jt.PreOrder() {
		for _, ch := range jt.Children[i] {
			cur[ch] = relation.Semijoin(q.Atoms[ch].Name, cur[ch], cur[i])
			st.Semijoins++
		}
	}
	// Join phase: bottom-up; after full reduction every intermediate has
	// at most OUT tuples.
	acc := make([]*relation.Relation, len(q.Atoms))
	for _, i := range jt.PostOrder() {
		acc[i] = cur[i]
		for _, ch := range jt.Children[i] {
			acc[i] = relation.HashJoin("T", acc[i], acc[ch])
			st.Joins++
			if acc[i].Len() > st.MaxIntermediate {
				st.MaxIntermediate = acc[i].Len()
			}
		}
	}
	out := acc[jt.Root].Project(q.Name, q.Vars()...)
	return out, st
}

// Result describes a distributed execution.
type Result struct {
	OutName string
	Rounds  int
	// MaxIntermediate is the largest total (cluster-wide) intermediate
	// relation produced by a join round — the quantity that explodes in
	// slide 63.
	MaxIntermediate int
}

// semijoinRound co-partitions target and reducer on their shared
// attributes and replaces target with target ⋉ reducer. The reducer
// only ships its key projection. One MPC round.
func semijoinRound(c *mpc.Cluster, roundName, target, reducer string, targetAttrs, reducerAttrs []string, seed uint64) {
	shared := sharedOf(targetAttrs, reducerAttrs)
	if len(shared) == 0 {
		panic(fmt.Sprintf("yannakakis: %s and %s share no attributes", target, reducer))
	}
	tmpT := roundName + ":t"
	tmpK := roundName + ":k"
	c.Round(roundName, func(srv *mpc.Server, out *mpc.Out) {
		if frag := srv.Rel(target); frag != nil {
			out.Open(tmpT, frag.Attrs()...).SendByHash(frag, frag.MustCols(shared), seed)
		}
		if frag := srv.Rel(reducer); frag != nil {
			keys := frag.Project(tmpK, shared...)
			keys.Dedup()
			out.Open(tmpK, shared...).SendByHash(keys, keys.MustCols(shared), seed)
		}
	})
	c.LocalStep(func(srv *mpc.Server) {
		tf := srv.RelOrEmpty(tmpT, targetAttrs...)
		kf := srv.RelOrEmpty(tmpK, shared...)
		srv.Put(relation.Semijoin(target, tf.Rename(target), kf.Rename("keys")))
		srv.Delete(tmpT)
		srv.Delete(tmpK)
	})
}

func sharedOf(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// joinRound co-partitions two distributed relations on their shared
// attributes and joins them locally into outRel. One MPC round. Returns
// the total output size.
func joinRound(c *mpc.Cluster, roundName, a, b, outRel string, aAttrs, bAttrs []string, seed uint64) int {
	shared := sharedOf(aAttrs, bAttrs)
	if len(shared) == 0 {
		panic(fmt.Sprintf("yannakakis: join round %s has no shared attributes", roundName))
	}
	tmpA, tmpB := roundName+":a", roundName+":b"
	c.Round(roundName, func(srv *mpc.Server, out *mpc.Out) {
		for _, spec := range []struct {
			rel, tmp string
		}{{a, tmpA}, {b, tmpB}} {
			frag := srv.Rel(spec.rel)
			if frag == nil {
				continue
			}
			out.Open(spec.tmp, frag.Attrs()...).SendByHash(frag, frag.MustCols(shared), seed)
		}
	})
	c.LocalStep(func(srv *mpc.Server) {
		af := srv.RelOrEmpty(tmpA, aAttrs...)
		bf := srv.RelOrEmpty(tmpB, bAttrs...)
		srv.Put(relation.HashJoin(outRel, af.Rename("a"), bf.Rename("b")))
		srv.Delete(tmpA)
		srv.Delete(tmpB)
	})
	return c.TotalLen(outRel)
}

// GYM runs vanilla distributed Yannakakis (slides 78–89): one semijoin
// per round upward, one per round downward, then one pairwise join per
// round bottom-up. r = O(n) rounds, load O((IN+OUT)/p).
func GYM(c *mpc.Cluster, jt *hypergraph.JoinTree, rels map[string]*relation.Relation, outName string, seed uint64) *Result {
	q := jt.Query
	work := cost.BindAtoms(q, rels)
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(work[a.Name])
	}
	trace.Annotatef(c, "yannakakis.GYM %s (%d atoms)", q.Name, len(q.Atoms))
	start := c.Metrics().Rounds()
	attrsOf := func(i int) []string { return q.Atoms[i].Vars }
	round := 0
	// Upward semijoins: children before parents.
	for _, i := range jt.PostOrder() {
		for _, ch := range jt.Children[i] {
			semijoinRound(c, fmt.Sprintf("gym:up%d", round), q.Atoms[i].Name, q.Atoms[ch].Name, attrsOf(i), attrsOf(ch), seed+uint64(round))
			round++
		}
	}
	// Downward semijoins: parents before children.
	for _, i := range jt.PreOrder() {
		for _, ch := range jt.Children[i] {
			semijoinRound(c, fmt.Sprintf("gym:down%d", round), q.Atoms[ch].Name, q.Atoms[i].Name, attrsOf(ch), attrsOf(i), seed+uint64(round))
			round++
		}
	}
	// Join phase: bottom-up pairwise joins.
	maxInter := 0
	accName := make([]string, len(q.Atoms))
	accAttrs := make([][]string, len(q.Atoms))
	for i, a := range q.Atoms {
		accName[i] = a.Name
		accAttrs[i] = a.Vars
	}
	for _, i := range jt.PostOrder() {
		for _, ch := range jt.Children[i] {
			outRel := fmt.Sprintf("%s:acc%d", outName, round)
			n := joinRound(c, fmt.Sprintf("gym:join%d", round), accName[i], accName[ch], outRel, accAttrs[i], accAttrs[ch], seed+uint64(round))
			if n > maxInter {
				maxInter = n
			}
			c.DeleteAll(accName[i])
			c.DeleteAll(accName[ch])
			accName[i] = outRel
			accAttrs[i] = unionAttrs(accAttrs[i], accAttrs[ch])
			round++
		}
	}
	finalize(c, q, accName[jt.Root], outName)
	return &Result{OutName: outName, Rounds: c.Metrics().Rounds() - start, MaxIntermediate: maxInter}
}

func unionAttrs(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, x := range b {
		dup := false
		for _, y := range a {
			if x == y {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

// finalize projects the accumulated relation to the query's variable
// order under outName on every server.
func finalize(c *mpc.Cluster, q hypergraph.Query, accRel, outName string) {
	vars := q.Vars()
	c.LocalStep(func(srv *mpc.Server) {
		frag := srv.Rel(accRel)
		if frag == nil {
			srv.Put(relation.New(outName, vars...))
			return
		}
		srv.Put(frag.Project(outName, vars...))
		srv.Delete(accRel)
	})
}

// GYMOptimized runs the depth-optimized GYM of slides 90–94: per level
// (deepest first) all parents are semijoined by all their children in
// one round — a parent with k children is shipped in k keyed copies —
// followed by one intersection round; the downward phase runs one round
// per level; the join phase is a single HyperCube round over the fully
// reduced relations. r = O(depth(jt)).
func GYMOptimized(c *mpc.Cluster, jt *hypergraph.JoinTree, rels map[string]*relation.Relation, outName string, seed uint64) *Result {
	q := jt.Query
	work := cost.BindAtoms(q, rels)
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(work[a.Name])
	}
	trace.Annotatef(c, "yannakakis.GYMOptimized %s (depth %d)", q.Name, len(jt.Levels())-1)
	start := c.Metrics().Rounds()
	levels := jt.Levels()
	round := 0
	// Upward, deepest level first: semijoin all parents at level d by
	// their children (level d+1).
	for d := len(levels) - 2; d >= 0; d-- {
		var parents []int
		for _, i := range levels[d] {
			if len(jt.Children[i]) > 0 {
				parents = append(parents, i)
			}
		}
		if len(parents) == 0 {
			continue
		}
		parallelSemijoinRound(c, fmt.Sprintf("gymopt:up%d", round), q, jt, parents, seed+uint64(round))
		round += 2 // semijoin + intersect
	}
	// Downward, root level first: children semijoined by parents.
	for d := 0; d < len(levels)-1; d++ {
		var edges [][2]int // (child, parent)
		for _, i := range levels[d] {
			for _, ch := range jt.Children[i] {
				edges = append(edges, [2]int{ch, i})
			}
		}
		if len(edges) == 0 {
			continue
		}
		downwardRound(c, fmt.Sprintf("gymopt:down%d", round), q, edges, seed+uint64(round))
		round++
	}
	// Join phase: one HyperCube round over the reduced relations.
	reduced := map[string]*relation.Relation{}
	for _, a := range q.Atoms {
		reduced[a.Name] = c.Gather(a.Name)
		c.DeleteAll(a.Name)
	}
	if _, err := hypercube.Run(c, q, reduced, outName, seed+999, hypercube.LocalGeneric); err != nil {
		panic(fmt.Sprintf("yannakakis: join-phase HyperCube: %v", err))
	}
	return &Result{OutName: outName, Rounds: c.Metrics().Rounds() - start}
}

// parallelSemijoinRound semijoins every listed parent by all of its
// children in one round plus one intersection round. For a parent with
// children c1..ck, k keyed copies of the parent are co-partitioned with
// each child's key projection (round 1, slide 91); each copy is reduced
// locally, and the copies are then re-partitioned on the full parent
// tuple and intersected (round 2, slide 92).
func parallelSemijoinRound(c *mpc.Cluster, name string, q hypergraph.Query, jt *hypergraph.JoinTree, parents []int, seed uint64) {
	type edge struct {
		parent, child int
		shared        []string
	}
	var edges []edge
	for _, pIdx := range parents {
		for _, ch := range jt.Children[pIdx] {
			sh := sharedOf(q.Atoms[pIdx].Vars, q.Atoms[ch].Vars)
			if len(sh) == 0 {
				panic("yannakakis: parent and child share no attributes")
			}
			edges = append(edges, edge{parent: pIdx, child: ch, shared: sh})
		}
	}
	// Round 1: ship parent copies + child keys, one stream pair per edge.
	c.Round(name+":semi", func(srv *mpc.Server, out *mpc.Out) {
		for ei, e := range edges {
			pa := q.Atoms[e.parent]
			if frag := srv.Rel(pa.Name); frag != nil {
				out.Open(fmt.Sprintf("%s:p%d", name, ei), pa.Vars...).SendByHash(frag, frag.MustCols(e.shared), seed+uint64(ei))
			}
			ca := q.Atoms[e.child]
			if frag := srv.Rel(ca.Name); frag != nil {
				keys := frag.Project("k", e.shared...)
				keys.Dedup()
				out.Open(fmt.Sprintf("%s:k%d", name, ei), e.shared...).SendByHash(keys, keys.MustCols(e.shared), seed+uint64(ei))
			}
		}
	})
	c.LocalStep(func(srv *mpc.Server) {
		for ei, e := range edges {
			pa := q.Atoms[e.parent]
			pf := srv.RelOrEmpty(fmt.Sprintf("%s:p%d", name, ei), pa.Vars...)
			kf := srv.RelOrEmpty(fmt.Sprintf("%s:k%d", name, ei), e.shared...)
			srv.Put(relation.Semijoin(fmt.Sprintf("%s:r%d", name, ei), pf.Rename("p"), kf.Rename("k")))
			srv.Delete(fmt.Sprintf("%s:p%d", name, ei))
			srv.Delete(fmt.Sprintf("%s:k%d", name, ei))
		}
	})
	// Round 2: re-partition each reduced copy by the full parent tuple
	// and intersect the copies of each parent.
	c.Round(name+":intersect", func(srv *mpc.Server, out *mpc.Out) {
		for ei, e := range edges {
			pa := q.Atoms[e.parent]
			frag := srv.Rel(fmt.Sprintf("%s:r%d", name, ei))
			if frag == nil {
				continue
			}
			out.Open(fmt.Sprintf("%s:x%d", name, ei), pa.Vars...).SendByHash(frag, frag.MustCols(pa.Vars), seed^0xabcd)
			srv.Delete(fmt.Sprintf("%s:r%d", name, ei))
		}
	})
	c.LocalStep(func(srv *mpc.Server) {
		for _, pIdx := range parents {
			pa := q.Atoms[pIdx]
			var copies []*relation.Relation
			for ei, e := range edges {
				if e.parent != pIdx {
					continue
				}
				cf := srv.RelOrEmpty(fmt.Sprintf("%s:x%d", name, ei), pa.Vars...)
				cf.Dedup()
				copies = append(copies, cf.Rename(fmt.Sprintf("c%d", ei)))
				srv.Delete(fmt.Sprintf("%s:x%d", name, ei))
			}
			srv.Put(relation.Intersect(pa.Name, copies...))
		}
	})
}

// downwardRound semijoins every (child, parent) edge in one round:
// children and the parents' key projections are co-partitioned per
// edge.
func downwardRound(c *mpc.Cluster, name string, q hypergraph.Query, edges [][2]int, seed uint64) {
	type espec struct {
		child, parent int
		shared        []string
	}
	var specs []espec
	for _, e := range edges {
		sh := sharedOf(q.Atoms[e[0]].Vars, q.Atoms[e[1]].Vars)
		specs = append(specs, espec{child: e[0], parent: e[1], shared: sh})
	}
	c.Round(name, func(srv *mpc.Server, out *mpc.Out) {
		for ei, e := range specs {
			ca := q.Atoms[e.child]
			if frag := srv.Rel(ca.Name); frag != nil {
				out.Open(fmt.Sprintf("%s:c%d", name, ei), ca.Vars...).SendByHash(frag, frag.MustCols(e.shared), seed+uint64(ei))
			}
			pa := q.Atoms[e.parent]
			if frag := srv.Rel(pa.Name); frag != nil {
				keys := frag.Project("k", e.shared...)
				keys.Dedup()
				out.Open(fmt.Sprintf("%s:k%d", name, ei), e.shared...).SendByHash(keys, keys.MustCols(e.shared), seed+uint64(ei))
			}
		}
	})
	c.LocalStep(func(srv *mpc.Server) {
		for ei, e := range specs {
			ca := q.Atoms[e.child]
			cf := srv.RelOrEmpty(fmt.Sprintf("%s:c%d", name, ei), ca.Vars...)
			kf := srv.RelOrEmpty(fmt.Sprintf("%s:k%d", name, ei), e.shared...)
			srv.Put(relation.Semijoin(ca.Name, cf.Rename("c"), kf.Rename("k")))
			srv.Delete(fmt.Sprintf("%s:c%d", name, ei))
			srv.Delete(fmt.Sprintf("%s:k%d", name, ei))
		}
	})
}

// IterativeBinaryJoin is the multi-round baseline (slide 57/63): join
// the relations left to right, one co-partitioned hash join per round.
// Consecutive relations must share at least one attribute. Returns the
// peak total intermediate size, the quantity that blows up on slide 63.
func IterativeBinaryJoin(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) *Result {
	work := cost.BindAtoms(q, rels)
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(work[a.Name])
	}
	trace.Annotatef(c, "yannakakis.IterativeBinaryJoin %s (%d atoms)", q.Name, len(q.Atoms))
	start := c.Metrics().Rounds()
	accRel := q.Atoms[0].Name
	accAttrs := q.Atoms[0].Vars
	maxInter := 0
	for i := 1; i < len(q.Atoms); i++ {
		next := q.Atoms[i]
		outRel := fmt.Sprintf("%s:acc%d", outName, i)
		n := joinRound(c, fmt.Sprintf("ibj:join%d", i), accRel, next.Name, outRel, accAttrs, next.Vars, seed+uint64(i))
		if n > maxInter {
			maxInter = n
		}
		c.DeleteAll(accRel)
		c.DeleteAll(next.Name)
		accRel = outRel
		accAttrs = unionAttrs(accAttrs, next.Vars)
	}
	finalize(c, q, accRel, outName)
	return &Result{OutName: outName, Rounds: c.Metrics().Rounds() - start, MaxIntermediate: maxInter}
}

// GHDRun executes a query via a width-w, depth-d GHD (slide 95):
// round 1 materializes every bag (joining its λ atoms on a HyperCube
// grid, all bags sharing the round); the acyclic bag tree is then
// processed by optimized GYM. r = O(d), L = O((IN^w + OUT)/p).
func GHDRun(c *mpc.Cluster, g *hypergraph.GHD, rels map[string]*relation.Relation, outName string, seed uint64) *Result {
	q := g.Query
	work := cost.BindAtoms(q, rels)
	start := c.Metrics().Rounds()

	// Build one HyperCube plan per bag over its λ atoms' sub-query.
	type bagPlan struct {
		sub    hypergraph.Query
		routes []hypercube.Route // one per atom of sub
	}
	plans := make([]bagPlan, len(g.Bags))
	for bi, bag := range g.Bags {
		var atoms []hypergraph.Atom
		sizes := map[string]int64{}
		for _, ai := range bag.Atoms {
			a := q.Atoms[ai]
			atoms = append(atoms, a)
			n := int64(work[a.Name].Len())
			if n == 0 {
				n = 1
			}
			sizes[a.Name] = n
		}
		sub := hypergraph.Query{Name: fmt.Sprintf("bag%d", bi), Atoms: atoms}
		pl, err := hypercube.NewPlan(sub, sizes, c.P(), seed+uint64(bi))
		if err != nil {
			panic(fmt.Sprintf("yannakakis: bag plan: %v", err))
		}
		plans[bi] = bagPlan{sub: sub}
		for _, a := range atoms {
			plans[bi].routes = append(plans[bi].routes, pl.Route(a))
		}
	}
	// Scatter each atom once per bag that uses it (under a bag-local
	// name, since different bags route the same atom differently).
	for bi, bp := range plans {
		for _, a := range bp.sub.Atoms {
			c.ScatterRoundRobin(work[a.Name].Rename(fmt.Sprintf("b%d:%s", bi, a.Name)))
		}
	}
	// One round: route all atoms of all bags.
	c.Round("ghd:bags", func(srv *mpc.Server, out *mpc.Out) {
		for bi, bp := range plans {
			for ai, a := range bp.sub.Atoms {
				frag := srv.Rel(fmt.Sprintf("b%d:%s", bi, a.Name))
				if frag == nil {
					continue
				}
				st := out.Open(fmt.Sprintf("ghd:b%d:%s", bi, a.Name), a.Vars...)
				for i := 0; i < frag.Len(); i++ {
					bp.routes[ai].Send(st, frag.Row(i))
				}
			}
		}
	})
	// Local: join each bag's fragments, project to bag vars.
	bagVars := make([][]string, len(g.Bags))
	for bi, bag := range g.Bags {
		bagVars[bi] = bag.Vars
	}
	c.LocalStep(func(srv *mpc.Server) {
		for bi, bp := range plans {
			inputs := make([]*relation.Relation, len(bp.sub.Atoms))
			var allVars []string
			for i, a := range bp.sub.Atoms {
				inputs[i] = srv.RelOrEmpty(fmt.Sprintf("ghd:b%d:%s", bi, a.Name), a.Vars...)
				allVars = unionAttrs(allVars, a.Vars)
				srv.Delete(fmt.Sprintf("ghd:b%d:%s", bi, a.Name))
			}
			joined := relation.GenericJoin("j", allVars, inputs...)
			bagRel := joined.Project(fmt.Sprintf("bag%d", bi), bagVars[bi]...)
			bagRel.Dedup()
			srv.Put(bagRel)
		}
	})
	for bi, bp := range plans {
		for _, a := range bp.sub.Atoms {
			c.DeleteAll(fmt.Sprintf("b%d:%s", bi, a.Name))
		}
	}

	// The bag tree is an acyclic query over bag relations; run optimized
	// GYM on it.
	bagAtoms := make([]hypergraph.Atom, len(g.Bags))
	for bi := range g.Bags {
		bagAtoms[bi] = hypergraph.Atom{Name: fmt.Sprintf("bag%d", bi), Vars: bagVars[bi]}
	}
	bagQuery := hypergraph.Query{Name: outName + ":bagq", Atoms: bagAtoms}
	bagTree := &hypergraph.JoinTree{
		Query:    bagQuery,
		Parent:   append([]int(nil), g.Parent...),
		Children: g.Children,
		Root:     g.Root,
	}
	bagRels := map[string]*relation.Relation{}
	for bi := range g.Bags {
		bagRels[fmt.Sprintf("bag%d", bi)] = c.Gather(fmt.Sprintf("bag%d", bi))
		c.DeleteAll(fmt.Sprintf("bag%d", bi))
	}
	sub := GYMOptimized(c, bagTree, bagRels, outName+":bq", seed+101)
	// Project to the original query's variable order.
	finalize(c, q, sub.OutName, outName)
	return &Result{OutName: outName, Rounds: c.Metrics().Rounds() - start}
}
