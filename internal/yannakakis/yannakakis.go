// Package yannakakis implements the Yannakakis algorithm for acyclic
// queries and its distributed variants (slides 64–95):
//
//   - Serial — the classical O(IN + OUT) three-phase algorithm (upward
//     semijoins, downward semijoins, bottom-up joins) on one machine.
//   - GYM — distributed Yannakakis: every semijoin and join becomes a
//     hash-partitioned MPC round with load O((IN+OUT)/p). The vanilla
//     variant runs one semijoin per round (r = O(n), slides 80–89); the
//     optimized variant runs each tree level's semijoins in parallel
//     and finishes with a join phase that starts from where the
//     reducer left the atoms: local when they all lie on one key, else
//     one round, shipping local joins to one key or HyperCube (r = O(d),
//     slides 90–94). It keeps the slides' keyed copies plus
//     intersection round for a parent with k ≥ 3 children; a parent
//     with one child takes one keyed semijoin, and one with two is
//     semijoined by them in sequence, so each parent is shipped at most
//     once per round and neither r nor the parents' tuples in C rise
//     (semijoinLevel). The child of such a parent reduces it whole and
//     stays where it lands, on their shared variables, so the downward
//     pass sends it only the parent's keys, and runs no round for a
//     level where parent and children all lie on the same key
//     (downwardPass).
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
	"slices"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
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
	c.Note("yannakakis.GYM %s (%d atoms)", q.Name, len(q.Atoms))
	start := c.Metrics().Rounds()
	round := 0
	// Upward semijoins: children before parents.
	for _, i := range jt.PostOrder() {
		for _, ch := range jt.Children[i] {
			semijoin(c, fmt.Sprintf("gym:up%d", round), q, i, ch, seed)
			round++
		}
	}
	// Downward semijoins: parents before children.
	for _, i := range jt.PreOrder() {
		for _, ch := range jt.Children[i] {
			semijoin(c, fmt.Sprintf("gym:down%d", round), q, ch, i, seed)
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
// (deepest first) every parent is semijoined by all of its children
// (semijoinLevel) in one round, or in two when some parent there has
// two or more children; the downward phase runs at most one round per
// level, and none for a level whose semijoins are all local
// (downwardPass); the join phase is local when the reduced relations
// all lie on one key, and one round otherwise (joinPhase).
// r = O(depth(jt)), exactly gymOptRounds(jt). It places the inputs
// round-robin and runs gymOptimized.
func GYMOptimized(c *mpc.Cluster, jt *hypergraph.JoinTree, rels map[string]*relation.Relation, outName string, seed uint64) *Result {
	scatter(c, jt.Query, rels)
	return gymOptimized(c, jt, outName, seed)
}

// gymOptimized is GYMOptimized on the atom fragments already on the
// cluster, each held under its atom's name with its variables as
// columns. Where each atom lies between the passes is a function of the
// tree alone: the upward pass carries every child of a parent with k ≤ 2
// children whole to their shared variables K(p, c) and leaves it there,
// so the downward pass ships that child only its parent's keys, or
// nothing when the parent lies on K(p, c) too (downwardPass), and the
// join phase plans from where the pass leaves every atom (joinPhase).
func gymOptimized(c *mpc.Cluster, jt *hypergraph.JoinTree, outName string, seed uint64) *Result {
	q := jt.Query
	c.Note("yannakakis.GYMOptimized %s (depth %d)", q.Name, len(jt.Levels())-1)
	start := c.Metrics().Rounds()
	levels := jt.Levels()
	round := 0
	// Upward, deepest level first: semijoin all parents at level d by
	// their children (level d+1).
	for d := len(levels) - 2; d >= 0; d-- {
		round += semijoinLevel(c, fmt.Sprintf("gymopt:up%d", round), q, jt, parentsOf(jt, levels[d]), seed)
	}
	// Downward, root level first: children semijoined by parents.
	pass, at := downwardPass(jt)
	for _, sjs := range pass {
		round += keyedSemijoins(c, fmt.Sprintf("gymopt:down%d", round), q, sjs, nil, seed)
	}
	joinPhase(c, q, at, outName, seed)
	return &Result{Rounds: c.Metrics().Rounds() - start}
}

// joinPhase joins the fully reduced atoms, atom i lying hashed on
// at[i], into outName with schema q.Vars(). Atoms on one key form a
// group whose join is local: every answer's rows lie with its key. One
// group joins locally and runs no round. With several, an anchor group,
// whose key lies within every other group's variables, can stay while
// the others' local joins ship to its key (of several anchors, the one
// leaving the fewest rows to ship); Cluster.Choose counts that round
// and a HyperCube round over the atoms before either ships, and the
// lower max receive, then the lower C, wins, a tie keeping HyperCube.
// Without an anchor HyperCube runs. The atoms' sizes, which size the
// HyperCube plan, and the groups' sizes, which pick the anchor, come
// from one exchange that rides the last round's barrier.
func joinPhase(c *mpc.Cluster, q hypergraph.Query, at [][]string, outName string, seed uint64) {
	groups := groupsOf(at)
	if len(groups) == 1 {
		c.Note("yannakakis join phase: local, every atom on %v", at[0])
		c.LocalStep(func(srv *mpc.Server) { srv.Put(groupJoin(srv, q, groups[0], outName, q.Vars())) })
		return
	}
	vars, name := make([][]string, len(groups)), make([]string, len(groups))
	for g, atoms := range groups {
		name[g] = q.Atoms[atoms[0]].Name // a one-atom group's join is its atom
		if len(atoms) > 1 {
			name[g] = fmt.Sprintf("%s:g%d", outName, g)
		}
		for _, i := range atoms {
			vars[g] = unionAttrs(vars[g], q.Atoms[i].Vars)
		}
	}
	var anchors []int
	for g, atoms := range groups {
		key := at[atoms[0]]
		if len(key) > 0 && !slices.ContainsFunc(vars, func(vs []string) bool { return len(sharedOf(key, vs)) < len(key) }) {
			anchors = append(anchors, g)
		}
	}
	if len(anchors) > 0 {
		c.LocalStep(func(srv *mpc.Server) {
			for g, atoms := range groups {
				if len(atoms) > 1 {
					srv.Put(groupJoin(srv, q, atoms, name[g], vars[g]))
				}
			}
		})
		defer func() {
			for g, atoms := range groups {
				if len(atoms) > 1 {
					c.DeleteAll(name[g])
				}
			}
		}()
	}
	// Word i sizes atom i, word len(q.Atoms)+j anchor j's group join.
	n := c.Exchange("yannakakis join phase: sizes", len(q.Atoms)+len(anchors), false, func(s *mpc.Server, w []int64) {
		for i, a := range q.Atoms {
			w[i] += int64(s.Len(a.Name))
		}
		for j, g := range anchors {
			w[len(q.Atoms)+j] += int64(s.Len(name[g]))
		}
	})
	sizes := make(map[string]int64, len(q.Atoms))
	for i, a := range q.Atoms {
		sizes[a.Name] = max(n[i], 1)
	}
	pl, err := hypercube.NewPlan(q, sizes, c.P(), seed)
	if err != nil {
		panic(fmt.Sprintf("yannakakis: join-phase HyperCube: %v", err))
	}
	if len(anchors) == 0 {
		c.Note("yannakakis join phase: HyperCube, no group's key lies in every other group")
		hypercube.RunWithPlan(c, pl, outName, hypercube.LocalGeneric)
		return
	}
	best, groupSize := 0, n[len(q.Atoms):] // of several anchors, the largest ships the fewest rows
	for j := range anchors {
		if groupSize[j] > groupSize[best] {
			best = j
		}
	}
	anchor := anchors[best]
	key := at[groups[anchor][0]]
	var ship, grid []mpc.Send
	for g := range groups {
		if g != anchor {
			ship = append(ship, mpc.Send{From: name[g], To: outName + ":" + name[g], Policy: mpc.Hash(seed, key...)})
		}
	}
	for _, a := range q.Atoms {
		grid = append(grid, mpc.Send{From: a.Name, To: outName + ":" + a.Name, Policy: pl.Route(a)})
	}
	if c.Choose("yannakakis join phase: HyperCube or ship to the anchor", grid, ship) == 0 {
		hypercube.RunWithPlan(c, pl, outName, hypercube.LocalGeneric)
		return
	}
	c.Shuffle("gymopt:join", ship...)
	c.LocalStep(func(srv *mpc.Server) {
		inputs := make([]*relation.Relation, len(groups))
		for g := range groups {
			from := outName + ":" + name[g]
			if g == anchor {
				from = name[g]
			}
			inputs[g] = srv.RelOrEmpty(from, vars[g]...)
			srv.Delete(outName + ":" + name[g])
		}
		srv.Put(relation.GenericJoin(outName, q.Vars(), inputs...))
	})
}

// groupsOf lists the atoms by the ordered key they lie on, in order of
// first appearance: atoms hashed on one key are co-partitioned.
func groupsOf(at [][]string) [][]int {
	var groups [][]int
	for i, key := range at {
		if g := slices.IndexFunc(groups, func(g []int) bool { return slices.Equal(at[g[0]], key) }); g >= 0 {
			groups[g] = append(groups[g], i)
		} else {
			groups = append(groups, []int{i})
		}
	}
	return groups
}

// groupJoin joins srv's fragments of the listed atoms into name.
func groupJoin(srv *mpc.Server, q hypergraph.Query, atoms []int, name string, vars []string) *relation.Relation {
	inputs := make([]*relation.Relation, len(atoms))
	for j, i := range atoms {
		inputs[j] = srv.RelOrEmpty(q.Atoms[i].Name, q.Atoms[i].Vars...)
	}
	return relation.GenericJoin(name, vars, inputs...)
}

// parentsOf returns the nodes of level that have children.
func parentsOf(jt *hypergraph.JoinTree, level []int) []int {
	var parents []int
	for _, i := range level {
		if len(jt.Children[i]) > 0 {
			parents = append(parents, i)
		}
	}
	return parents
}

// gymOptRounds is gymOptimized's round count on jt: per non-leaf level
// one upward round (two when a parent there has two or more children)
// and one downward round unless all of the level's downward semijoins
// are local, and the join round unless every atom ends on one key.
func gymOptRounds(jt *hypergraph.JoinTree) int {
	levels := jt.Levels()
	pass, at := downwardPass(jt)
	r := min(len(groupsOf(at))-1, 1) // the join round
	for _, level := range levels[:len(levels)-1] {
		r++
		for _, i := range level {
			if len(jt.Children[i]) >= 2 {
				r++
				break
			}
		}
	}
	for _, sjs := range pass {
		if slices.ContainsFunc(sjs, keyedSemijoin.ships) {
			r++
		}
	}
	return r
}

// downwardPass plans gymOptimized's downward semijoins, one list per
// non-leaf level, root first. Each child c of a parent p is reduced by
// p's keys; what moves depends on where the upward pass (semijoinLevel)
// left the two, which the tree alone fixes:
//
//   - a child of a parent with k ≤ 2 children was carried: it lies
//     hashed on K(p, c), in p's variable order;
//   - a parent with k ≤ 2 children lies on its last child's key, and one
//     with k ≥ 3 on its full tuple;
//   - a leaf under a k ≥ 3 parent lies where it was scattered.
//
// A child already hashed on the variables of K(p, c) stays there and is
// sent only p's key projection, hashed the same way; when p lies on that
// key too, nothing moves and the semijoin is local. Any other child is
// re-keyed with p's keys on K(p, c) in its own variable order, and lies
// there from then on, which its own children's semijoins at the next
// level see. The second result is where each atom lies after the pass:
// the variables it is hashed on, in order (nil: as scattered).
func downwardPass(jt *hypergraph.JoinTree) ([][]keyedSemijoin, [][]string) {
	q := jt.Query
	at := make([][]string, len(q.Atoms)) // the variables each atom is hashed on; nil: as scattered
	for i, chs := range jt.Children {
		switch k := len(chs); {
		case k >= 3:
			at[i] = q.Atoms[i].Vars
		case k > 0:
			at[i] = sharedOf(q.Atoms[i].Vars, q.Atoms[chs[k-1]].Vars)
		}
	}
	for ch, p := range jt.Parent {
		if p >= 0 && len(jt.Children[p]) <= 2 {
			at[ch] = sharedOf(q.Atoms[p].Vars, q.Atoms[ch].Vars)
		}
	}
	levels := jt.Levels()
	pass := make([][]keyedSemijoin, len(levels)-1)
	for d, level := range levels[:len(levels)-1] {
		for _, p := range level {
			for _, ch := range jt.Children[p] {
				name := q.Atoms[ch].Name
				sj := newKeyedSemijoin(q, ch, p, name, name)
				if sameVars(at[ch], sj.shared) {
					sj.shared, sj.targetPlaced = at[ch], true
				}
				at[ch] = sj.shared
				sj.reducerPlaced = slices.Equal(at[p], sj.shared)
				pass[d] = append(pass[d], sj)
			}
		}
	}
	return pass, at
}

// sameVars reports whether a and b hold the same variables, in any
// order.
func sameVars(a, b []string) bool {
	return len(a) == len(b) && len(sharedOf(a, b)) == len(a)
}

// semijoinLevel semijoins every listed parent by all of its children and
// returns the number of rounds it ran: round A, named name+":semi",
// and round B, name+":semi2", when some parent has two or more
// children. Each parent crosses the network at most once per round;
// its sends are planned by its child count k:
//
//   - k = 1: round A co-partitions the parent with its child on their
//     shared variables K(p, c) and reduces it there. The child travels
//     whole, not as its key projection, and is left where it lands
//     (it is carried), so the downward pass need not ship it again.
//   - k = 2: round A reduces the parent by child 1 as above, and round B
//     re-keys the reduced parent on K(p, c2) and reduces it by child 2,
//     carried the same way.
//   - k ≥ 3: the slides' form (91–92). Round A ships k keyed copies of
//     the parent, each reduced by one child's keys; round B
//     re-partitions the copies on the full parent tuple and intersects
//     them. The children stay where they were.
//
// The slides' form takes two rounds for every k. For k ≤ 2 the
// sequential form takes no more, and each round ships the parent once,
// keyed as one of the slides' round-1 copies and already reduced by the
// children before, so r does not rise and neither do the parents'
// tuples in C. For k ≥ 3 the sequential form would take k rounds, so
// the copies stay; carrying the children there too would put every
// child in the copies' round, and it raised L on Star(4). One thing
// differs from the slides' form: a k ≤ 2 parent ends the level hashed
// on its last child's shared variables, not on its full tuple, which
// sets how many keys the local dedup of its later key projections
// leaves.
func semijoinLevel(c *mpc.Cluster, name string, q hypergraph.Query, jt *hypergraph.JoinTree, parents []int, seed uint64) int {
	var first, second []keyedSemijoin
	var wide []int        // the k ≥ 3 parents, in order
	var copies []mpc.Send // round B: their copies, in the same order, on the full parent tuple
	for _, pIdx := range parents {
		pa, chs := q.Atoms[pIdx], jt.Children[pIdx]
		if len(chs) <= 2 {
			sj := newKeyedSemijoin(q, pIdx, chs[0], pa.Name, pa.Name)
			sj.carry = true
			first = append(first, sj)
			if len(chs) == 2 {
				sj := newKeyedSemijoin(q, pIdx, chs[1], pa.Name, pa.Name)
				sj.carry = true
				second = append(second, sj)
			}
			continue
		}
		wide = append(wide, pIdx)
		for _, ch := range chs {
			r := fmt.Sprintf("%s:r%d", name, len(copies))
			first = append(first, newKeyedSemijoin(q, pIdx, ch, pa.Name, r))
			copies = append(copies, mpc.Send{From: r, To: fmt.Sprintf("%s:x%d", name, len(copies)), Policy: mpc.Hash(seed, pa.Vars...)})
		}
	}
	keyedSemijoins(c, name+":semi", q, first, nil, seed)
	if len(second) == 0 && len(copies) == 0 {
		return 1
	}
	keyedSemijoins(c, name+":semi2", q, second, copies, seed)
	if len(wide) == 0 {
		return 2
	}
	c.LocalStep(func(srv *mpc.Server) {
		rest := copies
		for _, pIdx := range wide {
			pa, k := q.Atoms[pIdx], len(jt.Children[pIdx])
			xs := make([]*relation.Relation, k)
			for i, x := range rest[:k] {
				xs[i] = srv.RelOrEmpty(x.To, pa.Vars...).Rename(fmt.Sprintf("c%d", i))
				srv.Delete(x.To)
				srv.Delete(x.From)
			}
			rest = rest[k:]
			srv.Put(relation.Intersect(pa.Name, xs...))
		}
	})
	return 2
}

// keyedSemijoin is one semijoin of a keyedSemijoins round: the fragment
// stored under from, with the target atom's variables, is reduced by the
// reducer atom on their shared variables, and the result is stored
// under out.
type keyedSemijoin struct {
	target, reducer int
	from, out       string
	// shared is the key both sides meet on: the hash of these
	// variables, in this order.
	shared []string
	// targetPlaced and reducerPlaced say that side already lies hashed
	// on shared, so it is not shipped (the downward pass).
	targetPlaced, reducerPlaced bool
	// carry ships the reducer whole in place of its key projection and
	// leaves it where it lands, under its atom's name (the upward pass).
	carry bool
}

func newKeyedSemijoin(q hypergraph.Query, target, reducer int, from, out string) keyedSemijoin {
	sh := sharedOf(q.Atoms[target].Vars, q.Atoms[reducer].Vars)
	if len(sh) == 0 {
		panic(fmt.Sprintf("yannakakis: %s and %s share no attributes", q.Atoms[target].Name, q.Atoms[reducer].Name))
	}
	return keyedSemijoin{target: target, reducer: reducer, from: from, out: out, shared: sh}
}

// ships reports whether sj sends anything: it is local when both sides
// already lie on its key.
func (sj keyedSemijoin) ships() bool { return !sj.targetPlaced || !sj.reducerPlaced }

// semijoin replaces atom target with target ⋉ reducer in one round,
// shipping only the reducer's key projection.
func semijoin(c *mpc.Cluster, name string, q hypergraph.Query, target, reducer int, seed uint64) {
	t := q.Atoms[target].Name
	keyedSemijoins(c, name, q, []keyedSemijoin{newKeyedSemijoin(q, target, reducer, t, t)}, nil, seed)
}

// keyedSemijoins runs sjs as one round: each ships its from fragment
// and its reducer's key projection, or the whole reducer when it
// carries it, all hashed on their shared variables, and reduces the one
// by the other where they meet. A side already placed on that key is
// not shipped. extra rides in the same round; the caller's next local
// step consumes it. It returns the number of rounds it ran: 0 when every
// semijoin is local, else 1.
func keyedSemijoins(c *mpc.Cluster, name string, q hypergraph.Query, sjs []keyedSemijoin, extra []mpc.Send, seed uint64) int {
	// Semijoin i ships the target on stream "<name>:<target>|<reducer>"
	// and the keys, projected locally under that name + ":keys", on that
	// name + ":k"; a carried reducer travels on "<name>:<reducer>^<target>".
	streams := make([]string, len(sjs))
	carried := make([]string, len(sjs))
	sends := make([]mpc.Send, 0, 2*len(sjs)+len(extra))
	for i, sj := range sjs {
		tn, rn := q.Atoms[sj.target].Name, q.Atoms[sj.reducer].Name
		streams[i] = fmt.Sprintf("%s:%s|%s", name, tn, rn)
		key := mpc.Hash(seed, sj.shared...)
		if !sj.targetPlaced {
			sends = append(sends, mpc.Send{From: sj.from, To: streams[i], Policy: key})
		}
		switch {
		case sj.carry:
			carried[i] = fmt.Sprintf("%s:%s^%s", name, rn, tn)
			sends = append(sends, mpc.Send{From: rn, To: carried[i], Policy: key})
		case !sj.reducerPlaced:
			sends = append(sends, mpc.Send{From: streams[i] + ":keys", To: streams[i] + ":k", Policy: key})
		}
	}
	sends = append(sends, extra...)
	c.LocalStep(func(srv *mpc.Server) {
		for i, sj := range sjs {
			if !sj.carry {
				projectKeys(srv, q.Atoms[sj.reducer].Name, streams[i]+":keys", sj.shared)
			}
		}
	})
	if len(sends) > 0 {
		c.Shuffle(name, sends...)
	}
	c.LocalStep(func(srv *mpc.Server) {
		for i, sj := range sjs {
			from := streams[i]
			if sj.targetPlaced {
				from = sj.from
			}
			tf := srv.RelOrEmpty(from, q.Atoms[sj.target].Vars...)
			var rf *relation.Relation
			switch {
			case sj.carry:
				rf = srv.RelOrEmpty(carried[i], q.Atoms[sj.reducer].Vars...).Rename(q.Atoms[sj.reducer].Name)
				srv.Put(rf)
			case sj.reducerPlaced:
				rf = srv.RelOrEmpty(streams[i]+":keys", sj.shared...)
			default:
				rf = srv.RelOrEmpty(streams[i]+":k", sj.shared...)
			}
			srv.Put(relation.Semijoin(sj.out, tf.Rename("t"), rf.Rename("k")))
			for _, tmp := range []string{streams[i], streams[i] + ":k", streams[i] + ":keys", carried[i]} {
				srv.Delete(tmp)
			}
		}
	})
	if len(sends) == 0 {
		return 0
	}
	return 1
}

// IterativeBinaryJoin is the multi-round baseline (slide 57/63): join
// the relations left to right, one co-partitioned hash join per round.
// Consecutive relations must share at least one attribute. Returns the
// peak total intermediate size, the quantity that blows up on slide 63.
func IterativeBinaryJoin(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) *Result {
	scatter(c, q, rels)
	c.Note("yannakakis.IterativeBinaryJoin %s (%d atoms)", q.Name, len(q.Atoms))
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
