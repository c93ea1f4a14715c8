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
	Rounds int
	// MaxIntermediate is the largest total (cluster-wide) intermediate
	// relation produced by a join round — the quantity that explodes in
	// slide 63.
	MaxIntermediate int
}

// scatter binds rels to q's atoms (cost.BindAtoms) and places them
// round-robin, the inputs' initial placement.
func scatter(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation) {
	work := cost.BindAtoms(q, rels)
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(work[a.Name])
	}
}

// semijoinRound co-partitions target and reducer on their shared
// attributes and replaces target with target ⋉ reducer. The reducer
// only ships its key projection. One MPC round.
func semijoinRound(c *mpc.Cluster, roundName, target, reducer string, targetAttrs, reducerAttrs []string, seed uint64) {
	shared := sharedOf(targetAttrs, reducerAttrs)
	if len(shared) == 0 {
		panic(fmt.Sprintf("yannakakis: %s and %s share no attributes", target, reducer))
	}
	tmpT, tmpK, keys := roundName+":t", roundName+":k", roundName+":keys"
	c.LocalStep(func(srv *mpc.Server) { projectKeys(srv, reducer, keys, shared) })
	key := mpc.Hash(seed, shared...)
	c.Shuffle(roundName, mpc.Send{From: target, To: tmpT, Policy: key}, mpc.Send{From: keys, To: tmpK, Policy: key})
	c.LocalStep(func(srv *mpc.Server) {
		tf := srv.RelOrEmpty(tmpT, targetAttrs...)
		kf := srv.RelOrEmpty(tmpK, shared...)
		srv.Put(relation.Semijoin(target, tf.Rename(target), kf.Rename("keys")))
		srv.Delete(tmpT)
		srv.Delete(tmpK)
		srv.Delete(keys)
	})
}

// projectKeys stores under name the distinct projection of the
// server's fragment of rel onto keys, when it holds one: the key set a
// semijoin ships in place of the relation.
func projectKeys(srv *mpc.Server, rel, name string, keys []string) {
	if frag := srv.Rel(rel); frag != nil {
		k := frag.Project(name, keys...)
		k.Dedup()
		srv.Put(k)
	}
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
	key := mpc.Hash(seed, shared...)
	c.Shuffle(roundName, mpc.Send{From: a, To: tmpA, Policy: key}, mpc.Send{From: b, To: tmpB, Policy: key})
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
	scatter(c, q, rels)
	trace.Annotatef(c, "yannakakis.GYM %s (%d atoms)", q.Name, len(q.Atoms))
	start := c.Metrics().Rounds()
	attrsOf := func(i int) []string { return q.Atoms[i].Vars }
	round := 0
	// Upward semijoins: children before parents.
	for _, i := range jt.PostOrder() {
		for _, ch := range jt.Children[i] {
			semijoinRound(c, fmt.Sprintf("gym:up%d", round), q.Atoms[i].Name, q.Atoms[ch].Name, attrsOf(i), attrsOf(ch), seed)
			round++
		}
	}
	// Downward semijoins: parents before children.
	for _, i := range jt.PreOrder() {
		for _, ch := range jt.Children[i] {
			semijoinRound(c, fmt.Sprintf("gym:down%d", round), q.Atoms[ch].Name, q.Atoms[i].Name, attrsOf(ch), attrsOf(i), seed)
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
			n := joinRound(c, fmt.Sprintf("gym:join%d", round), accName[i], accName[ch], outRel, accAttrs[i], accAttrs[ch], seed)
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
	return &Result{Rounds: c.Metrics().Rounds() - start, MaxIntermediate: maxInter}
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
// reduced relations, routed from where the reductions left them.
// r = O(depth(jt)). It places the inputs round-robin and runs
// gymOptimized.
func GYMOptimized(c *mpc.Cluster, jt *hypergraph.JoinTree, rels map[string]*relation.Relation, outName string, seed uint64) *Result {
	scatter(c, jt.Query, rels)
	return gymOptimized(c, jt, outName, seed)
}

// gymOptimized is GYMOptimized on the atom fragments already on the
// cluster, each held under its atom's name with its variables as
// columns.
func gymOptimized(c *mpc.Cluster, jt *hypergraph.JoinTree, outName string, seed uint64) *Result {
	q := jt.Query
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
		parallelSemijoinRound(c, fmt.Sprintf("gymopt:up%d", round), q, jt, parents, seed)
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
		downwardRound(c, fmt.Sprintf("gymopt:down%d", round), q, edges, seed)
		round++
	}
	// Join phase: one HyperCube round over the reduced relations, where
	// they lie, with shares for their reduced sizes.
	sizes := make(map[string]int64, len(q.Atoms))
	for _, a := range q.Atoms {
		sizes[a.Name] = max(int64(c.TotalLen(a.Name)), 1)
	}
	pl, err := hypercube.NewPlan(q, sizes, c.P(), seed)
	if err != nil {
		panic(fmt.Sprintf("yannakakis: join-phase HyperCube: %v", err))
	}
	hypercube.RunWithPlan(c, pl, outName, hypercube.LocalGeneric)
	return &Result{Rounds: c.Metrics().Rounds() - start}
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
	var sends []mpc.Send
	for ei, e := range edges {
		key := mpc.Hash(seed, e.shared...)
		sends = append(sends,
			mpc.Send{From: q.Atoms[e.parent].Name, To: fmt.Sprintf("%s:p%d", name, ei), Policy: key},
			mpc.Send{From: fmt.Sprintf("%s:keys%d", name, ei), To: fmt.Sprintf("%s:k%d", name, ei), Policy: key})
	}
	c.LocalStep(func(srv *mpc.Server) {
		for ei, e := range edges {
			projectKeys(srv, q.Atoms[e.child].Name, fmt.Sprintf("%s:keys%d", name, ei), e.shared)
		}
	})
	c.Shuffle(name+":semi", sends...)
	c.LocalStep(func(srv *mpc.Server) {
		for ei, e := range edges {
			pa := q.Atoms[e.parent]
			pf := srv.RelOrEmpty(fmt.Sprintf("%s:p%d", name, ei), pa.Vars...)
			kf := srv.RelOrEmpty(fmt.Sprintf("%s:k%d", name, ei), e.shared...)
			srv.Put(relation.Semijoin(fmt.Sprintf("%s:r%d", name, ei), pf.Rename("p"), kf.Rename("k")))
			srv.Delete(fmt.Sprintf("%s:p%d", name, ei))
			srv.Delete(fmt.Sprintf("%s:k%d", name, ei))
			srv.Delete(fmt.Sprintf("%s:keys%d", name, ei))
		}
	})
	// Round 2: re-partition each reduced copy by the full parent tuple
	// and intersect the copies of each parent.
	copies := make([]mpc.Send, len(edges))
	for ei, e := range edges {
		copies[ei] = mpc.Send{From: fmt.Sprintf("%s:r%d", name, ei), To: fmt.Sprintf("%s:x%d", name, ei), Policy: mpc.Hash(seed, q.Atoms[e.parent].Vars...)}
	}
	c.Shuffle(name+":intersect", copies...)
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
				srv.Delete(fmt.Sprintf("%s:r%d", name, ei))
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
	var sends []mpc.Send
	for ei, e := range specs {
		key := mpc.Hash(seed, e.shared...)
		sends = append(sends,
			mpc.Send{From: q.Atoms[e.child].Name, To: fmt.Sprintf("%s:c%d", name, ei), Policy: key},
			mpc.Send{From: fmt.Sprintf("%s:keys%d", name, ei), To: fmt.Sprintf("%s:k%d", name, ei), Policy: key})
	}
	c.LocalStep(func(srv *mpc.Server) {
		for ei, e := range specs {
			projectKeys(srv, q.Atoms[e.parent].Name, fmt.Sprintf("%s:keys%d", name, ei), e.shared)
		}
	})
	c.Shuffle(name, sends...)
	c.LocalStep(func(srv *mpc.Server) {
		for ei, e := range specs {
			ca := q.Atoms[e.child]
			cf := srv.RelOrEmpty(fmt.Sprintf("%s:c%d", name, ei), ca.Vars...)
			kf := srv.RelOrEmpty(fmt.Sprintf("%s:k%d", name, ei), e.shared...)
			srv.Put(relation.Semijoin(ca.Name, cf.Rename("c"), kf.Rename("k")))
			srv.Delete(fmt.Sprintf("%s:c%d", name, ei))
			srv.Delete(fmt.Sprintf("%s:k%d", name, ei))
			srv.Delete(fmt.Sprintf("%s:keys%d", name, ei))
		}
	})
}

// IterativeBinaryJoin is the multi-round baseline (slide 57/63): join
// the relations left to right, one co-partitioned hash join per round.
// Consecutive relations must share at least one attribute. Returns the
// peak total intermediate size, the quantity that blows up on slide 63.
func IterativeBinaryJoin(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) *Result {
	scatter(c, q, rels)
	trace.Annotatef(c, "yannakakis.IterativeBinaryJoin %s (%d atoms)", q.Name, len(q.Atoms))
	start := c.Metrics().Rounds()
	accRel := q.Atoms[0].Name
	accAttrs := q.Atoms[0].Vars
	maxInter := 0
	for i := 1; i < len(q.Atoms); i++ {
		next := q.Atoms[i]
		outRel := fmt.Sprintf("%s:acc%d", outName, i)
		n := joinRound(c, fmt.Sprintf("ibj:join%d", i), accRel, next.Name, outRel, accAttrs, next.Vars, seed)
		if n > maxInter {
			maxInter = n
		}
		c.DeleteAll(accRel)
		c.DeleteAll(next.Name)
		accRel = outRel
		accAttrs = unionAttrs(accAttrs, next.Vars)
	}
	finalize(c, q, accRel, outName)
	return &Result{Rounds: c.Metrics().Rounds() - start, MaxIntermediate: maxInter}
}

// GHDRun executes a query via a width-w, depth-d GHD (slide 95):
// round 1 materializes every bag (joining its λ atoms on a HyperCube
// grid, all bags sharing the round); optimized GYM then processes the
// acyclic bag tree on the bags where round 1 left them.
// r = O(d), L = O((IN^w + OUT)/p).
func GHDRun(c *mpc.Cluster, g *hypergraph.GHD, rels map[string]*relation.Relation, outName string, seed uint64) *Result {
	q := g.Query
	scatter(c, q, rels)
	start := c.Metrics().Rounds()

	// One round routes all atoms of all bags, each bag from the one
	// placement of its atoms on a HyperCube grid of its own, planned over
	// its λ atoms' sub-query.
	subs := make([]hypergraph.Query, len(g.Bags))
	var sends []mpc.Send
	for bi, bag := range g.Bags {
		var atoms []hypergraph.Atom
		for _, ai := range bag.Atoms {
			atoms = append(atoms, q.Atoms[ai])
		}
		subs[bi] = hypergraph.Query{Name: fmt.Sprintf("bag%d", bi), Atoms: atoms}
		pl, err := hypercube.NewPlan(subs[bi], hypercube.Sizes(subs[bi], rels), c.P(), seed)
		if err != nil {
			panic(fmt.Sprintf("yannakakis: bag plan: %v", err))
		}
		for _, a := range atoms {
			sends = append(sends, mpc.Send{From: a.Name, To: fmt.Sprintf("ghd:b%d:%s", bi, a.Name), Policy: pl.Route(a)})
		}
	}
	c.Shuffle("ghd:bags", sends...)
	// Local: join each bag's fragments, project to bag vars.
	bagVars := make([][]string, len(g.Bags))
	for bi, bag := range g.Bags {
		bagVars[bi] = bag.Vars
	}
	c.LocalStep(func(srv *mpc.Server) {
		for bi, sub := range subs {
			inputs := make([]*relation.Relation, len(sub.Atoms))
			var allVars []string
			for i, a := range sub.Atoms {
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
	gymOptimized(c, bagTree, outName+":bq", seed)
	// Project to the original query's variable order.
	finalize(c, q, outName+":bq", outName)
	return &Result{Rounds: c.Metrics().Rounds() - start}
}
