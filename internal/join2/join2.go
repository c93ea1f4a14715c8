// Package join2 implements the tutorial's two-way join algorithms on
// the MPC simulator (slides 22–32):
//
//   - HashJoin — the parallel hash join every system uses (slide 23):
//     one round, load Θ(IN/p) without skew, but degrades to Θ(IN) under
//     extreme skew.
//   - BroadcastJoin — replicate the small relation everywhere
//     (slide 32), one round, load |R| + IN/p.
//   - CartesianProduct — the p1×p2 grid algorithm (slide 28) with
//     optimal shares, load 2·sqrt(|R||S|/p).
//   - SkewJoin — the arbitrary-skew algorithm (slides 29–30): parallel
//     hash join for light values plus a dedicated grid Cartesian
//     product per heavy hitter, load O(sqrt(OUT/p) + IN/p). SkewJoinKnown
//     routes in one round on servers that know the heavy hitters
//     (HeavyHitters); SkewJoin first finds them in two rounds.
//   - SortJoin — the parallel sort join (slide 31, Hu et al. '17):
//     sort the tagged union by (key, uid), join locally, and fix up
//     values crossing server boundaries with grid products; same load
//     bound as SkewJoin.
//
// Every algorithm takes two relations sharing exactly one attribute,
// distributes them (initial placement is free in the model), runs its
// rounds, and leaves the join result distributed under a caller-chosen
// name. Results and the metered (L, r, C) are read off the cluster.
package join2

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"mpcquery/internal/cost"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/sortmpc"
	"mpcquery/internal/stats"
)

// Result describes one parallel join execution.
type Result struct {
	Rounds int // communication rounds used by this join alone
}

// joinAttr returns the single shared attribute of r and s, panicking if
// there is not exactly one (the tutorial's two-way join model).
func joinAttr(r, s *relation.Relation) string {
	if r.Name() == s.Name() {
		panic("join2: inputs must have distinct names (rename one side for self-joins)")
	}
	shared := relation.SharedAttrs(r, s)
	if len(shared) != 1 {
		panic(fmt.Sprintf("join2: relations %s and %s share %d attributes, want exactly 1",
			r.Name(), s.Name(), len(shared)))
	}
	return shared[0]
}

// HashJoin runs the one-round parallel hash join of slide 23: every
// tuple of r and s is routed to server h(key) by its join-key value
// (the shared attributes — composite keys are supported), and each
// server joins its buckets locally.
func HashJoin(c *mpc.Cluster, r, s *relation.Relation, outName string, seed uint64) *Result {
	if r.Name() == s.Name() {
		panic("join2: inputs must have distinct names (rename one side for self-joins)")
	}
	shared := relation.SharedAttrs(r, s)
	if len(shared) == 0 {
		panic(fmt.Sprintf("join2: relations %s and %s share no attributes; use CartesianProduct", r.Name(), s.Name()))
	}
	c.ScatterRoundRobin(r)
	c.ScatterRoundRobin(s)
	c.Note("join2.HashJoin %s ⋈ %s on %v", r.Name(), s.Name(), shared)
	start := c.Metrics().Rounds()
	rName, sName := r.Name(), s.Name()
	rAttrs, sAttrs := r.Attrs(), s.Attrs()
	key := mpc.Hash(seed, shared...)
	c.Shuffle("hashjoin:shuffle",
		mpc.Send{From: rName, To: outName + ":" + rName, Policy: key},
		mpc.Send{From: sName, To: outName + ":" + sName, Policy: key})
	c.LocalStep(func(srv *mpc.Server) {
		rf := srv.RelOrEmpty(outName+":"+rName, rAttrs...)
		sf := srv.RelOrEmpty(outName+":"+sName, sAttrs...)
		srv.Put(relation.HashJoin(outName, rf.Rename(rName), sf.Rename(sName)))
		srv.Delete(outName + ":" + rName)
		srv.Delete(outName + ":" + sName)
	})
	return &Result{Rounds: c.Metrics().Rounds() - start}
}

// BroadcastJoin replicates r (the designated small relation) to every
// server and joins it against the locally resident fragments of s
// (slide 32). One round; load |r| per server.
func BroadcastJoin(c *mpc.Cluster, r, s *relation.Relation, outName string) *Result {
	joinAttr(r, s) // validate schema compatibility
	c.ScatterRoundRobin(r)
	c.ScatterRoundRobin(s)
	c.Note("join2.BroadcastJoin small=%s (%d tuples)", r.Name(), r.Len())
	start := c.Metrics().Rounds()
	rName, sName := r.Name(), s.Name()
	rAttrs, sAttrs := r.Attrs(), s.Attrs()
	c.Shuffle("broadcastjoin:replicate", mpc.Send{From: rName, To: outName + ":" + rName, Policy: mpc.Broadcast()})
	c.LocalStep(func(srv *mpc.Server) {
		rf := srv.RelOrEmpty(outName+":"+rName, rAttrs...)
		sf := srv.RelOrEmpty(sName, sAttrs...)
		srv.Put(relation.HashJoin(outName, rf.Rename(rName), sf))
		srv.Delete(outName + ":" + rName)
	})
	return &Result{Rounds: c.Metrics().Rounds() - start}
}

// GridShares returns the optimal grid dimensions p1×p2 ≤ p for a
// Cartesian product of sizes nr×ns (slide 28): |R|/p1 = |S|/p2, i.e.
// p1 = sqrt(p·|R|/|S|), clamped to [1, p].
func GridShares(nr, ns, p int) (p1, p2 int) {
	if nr <= 0 || ns <= 0 {
		return 1, p
	}
	f := math.Sqrt(float64(p) * float64(nr) / float64(ns))
	p1 = int(math.Round(f))
	if p1 < 1 {
		p1 = 1
	}
	if p1 > p {
		p1 = p
	}
	p2 = p / p1
	if p2 < 1 {
		p2 = 1
		p1 = p
	}
	return p1, p2
}

// CartesianProduct computes r × s with the grid algorithm of slide 28:
// servers form a p1×p2 rectangle; each r tuple goes to one random row
// (all its servers) and each s tuple to one random column. One round,
// load |R|/p1 + |S|/p2 ≈ 2·sqrt(|R||S|/p). The relations must share no
// attributes.
func CartesianProduct(c *mpc.Cluster, r, s *relation.Relation, outName string) *Result {
	if len(relation.SharedAttrs(r, s)) != 0 {
		panic("join2: CartesianProduct inputs share attributes")
	}
	c.ScatterRoundRobin(r)
	c.ScatterRoundRobin(s)
	start := c.Metrics().Rounds()
	p1, p2 := GridShares(r.Len(), s.Len(), c.P())
	rName, sName := r.Name(), s.Name()
	rAttrs, sAttrs := r.Attrs(), s.Attrs()
	c.Round("cartesian:grid", func(srv *mpc.Server, out *mpc.Out) {
		if frag := srv.Rel(rName); frag != nil {
			st := out.Open(outName+":"+rName, rAttrs...)
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				gr := srv.Rng().Intn(p1)
				for gc := 0; gc < p2; gc++ {
					st.SendRow(gr*p2+gc, row)
				}
			}
		}
		if frag := srv.Rel(sName); frag != nil {
			st := out.Open(outName+":"+sName, sAttrs...)
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				gc := srv.Rng().Intn(p2)
				for gr := 0; gr < p1; gr++ {
					st.SendRow(gr*p2+gc, row)
				}
			}
		}
	})
	c.LocalStep(func(srv *mpc.Server) {
		rf := srv.RelOrEmpty(outName+":"+rName, rAttrs...)
		sf := srv.RelOrEmpty(outName+":"+sName, sAttrs...)
		srv.Put(relation.CrossProduct(outName, rf.Rename(rName), sf.Rename(sName)))
		srv.Delete(outName + ":" + rName)
		srv.Delete(outName + ":" + sName)
	})
	return &Result{Rounds: c.Metrics().Rounds() - start}
}

// heavyPlan describes the exclusive server block assigned to one heavy
// hitter (slide 30): a p1×p2 grid of pTotal = p1·p2 servers starting at
// offset.
type heavyPlan struct {
	value  relation.Value
	dr, ds int // global degrees in r and s
	offset int
	p1, p2 int
}

// planHeavy allocates server blocks to heavy hitters proportionally to
// sqrt(dR·dS) (each heavy hitter's Cartesian output is dR·dS, so its
// optimal load sqrt(dR·dS/p_i) is equalized by this allocation).
func planHeavy(heavy []heavyPlan, p int) []heavyPlan {
	if len(heavy) == 0 {
		return heavy
	}
	total := 0.0
	for _, h := range heavy {
		total += math.Sqrt(float64(h.dr) * float64(h.ds))
	}
	offset := 0
	for i := range heavy {
		share := math.Sqrt(float64(heavy[i].dr)*float64(heavy[i].ds)) / total
		pi := int(math.Floor(share * float64(p)))
		if pi < 1 {
			pi = 1
		}
		if offset+pi > p {
			pi = p - offset
		}
		if pi < 1 {
			// Out of servers: stack remaining heavy hitters on the last
			// server; correctness is preserved, the load bound degrades.
			pi = 1
			offset = p - 1
		}
		heavy[i].offset = offset
		heavy[i].p1, heavy[i].p2 = GridShares(heavy[i].dr, heavy[i].ds, pi)
		offset += heavy[i].p1 * heavy[i].p2
		if offset >= p {
			offset = p - 1
		}
	}
	return heavy
}

// HeavyHitters returns the heavy hitters of a two-way join on column rc
// of r and column sc of s — the values whose degree in r or in s reaches
// the threshold (|r|+|s|)/p (slide 29) — sorted, with their degrees in
// both, and the threshold. The planner calls it to choose the skew join
// and the skewjoin descriptor to route it, on the same relations.
func HeavyHitters(r *relation.Relation, rc int, s *relation.Relation, sc int, p int) ([]stats.Hitter, int) {
	threshold := heavyThreshold(r, s, p)
	return stats.Heavy([]stats.Column{{Rel: r, Col: rc}, {Rel: s, Col: sc}}, threshold, stats.InAny), threshold
}

// heavyThreshold is slide 29's heavy-hitter degree IN/p, at least 1.
func heavyThreshold(r, s *relation.Relation, p int) int { return max((r.Len()+s.Len())/p, 1) }

// SkewJoin runs the arbitrary-skew two-way join of slides 29–30 on
// servers that do not know the heavy hitters — values with degree ≥ IN/p
// in r or s — and find them in cost.DetectHeavy's two rounds, the
// owner of value v being server h(v). The third round is SkewJoinKnown's
// routing round, fed the broadcast set: light values hash, each heavy
// hitter gets a dedicated grid Cartesian product.
func SkewJoin(c *mpc.Cluster, r, s *relation.Relation, outName string, seed uint64) *Result {
	y := joinAttr(r, s)
	c.ScatterRoundRobin(r)
	c.ScatterRoundRobin(s)
	start := c.Metrics().Rounds()
	threshold := heavyThreshold(r, s, c.P())
	c.Note("join2.SkewJoin %s ⋈ %s on %s (heavy threshold %d)", r.Name(), s.Name(), y, threshold)
	cols := []stats.Column{{Rel: r, Col: r.MustCol(y)}, {Rel: s, Col: s.MustCol(y)}}
	heavy := cost.DetectHeavy(c, "skewjoin", outName, seed, [][]stats.Column{cols}, threshold, stats.InAny)[0]
	skewShuffle(c, r, s, y, plansOf(heavy), outName, seed)
	return &Result{Rounds: c.Metrics().Rounds() - start}
}

// SkewJoinKnown runs the skew join of slides 29–30 on servers that
// already know the heavy hitters and their degrees, as the one-round
// skew bounds assume (arXiv 1602.06236): heavy lists them, sorted by
// value, with Deg = [degree in r, degree in s] (HeavyHitters' output).
// One round: light tuples are hashed on the join value; each heavy
// hitter gets an exclusive block of servers, sized in proportion to
// √(dR·dS), over which its r and s tuples form a grid Cartesian product.
// With the heavy hitters SkewJoin's two rounds find, it routes exactly
// as SkewJoin's third round.
func SkewJoinKnown(c *mpc.Cluster, r, s *relation.Relation, outName string, seed uint64, heavy []stats.Hitter) *Result {
	y := joinAttr(r, s)
	c.ScatterRoundRobin(r)
	c.ScatterRoundRobin(s)
	start := c.Metrics().Rounds()
	c.Note("join2.SkewJoinKnown %s ⋈ %s on %s (%d heavy hitters)", r.Name(), s.Name(), y, len(heavy))
	skewShuffle(c, r, s, y, plansOf(heavy), outName, seed)
	return &Result{Rounds: c.Metrics().Rounds() - start}
}

// plansOf lists the heavy hitters' degrees as unplaced heavy plans.
func plansOf(heavy []stats.Hitter) []heavyPlan {
	plans := make([]heavyPlan, len(heavy))
	for i, h := range heavy {
		plans[i] = heavyPlan{value: h.Value, dr: h.Deg[0], ds: h.Deg[1]}
	}
	return plans
}

// skewShuffle is the skew join's routing round and local join, given the
// heavy hitters sorted by value: a light tuple goes to server h(y), a
// heavy one to a random row (r) or column (s) of its value's grid.
func skewShuffle(c *mpc.Cluster, r, s *relation.Relation, y string, heavy []heavyPlan, outName string, seed uint64) {
	p := c.P()
	heavy = planHeavy(heavy, p)
	ySeed := mpc.HashSeed(seed, y)
	rName, sName := r.Name(), s.Name()
	rAttrs, sAttrs := r.Attrs(), s.Attrs()
	c.Round("skewjoin:shuffle", func(srv *mpc.Server, out *mpc.Out) {
		route := func(name string, attrs []string, isR bool) {
			frag := srv.Rel(name)
			if frag == nil {
				return
			}
			st := out.Open(outName+":"+name, attrs...)
			cols := frag.MustCols([]string{y})
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				hi, isHeavy := slices.BinarySearchFunc(heavy, row[cols[0]], func(h heavyPlan, v relation.Value) int { return cmp.Compare(h.value, v) })
				if !isHeavy {
					st.SendRow(mpc.Owner(row, cols, ySeed, p), row)
					continue
				}
				h := heavy[hi]
				if isR {
					gr := srv.Rng().Intn(h.p1)
					for gc := 0; gc < h.p2; gc++ {
						st.SendRow(h.offset+gr*h.p2+gc, row)
					}
				} else {
					gc := srv.Rng().Intn(h.p2)
					for gr := 0; gr < h.p1; gr++ {
						st.SendRow(h.offset+gr*h.p2+gc, row)
					}
				}
			}
		}
		route(rName, rAttrs, true)
		route(sName, sAttrs, false)
	})
	c.LocalStep(func(srv *mpc.Server) {
		rf := srv.RelOrEmpty(outName+":"+rName, rAttrs...)
		sf := srv.RelOrEmpty(outName+":"+sName, sAttrs...)
		srv.Put(relation.HashJoin(outName, rf.Rename(rName), sf.Rename(sName)))
		srv.Delete(outName + ":" + rName)
		srv.Delete(outName + ":" + sName)
	})
}

// SortJoin runs the parallel sort join of slide 31 (Hu et al. '17):
//
//  1. the tagged union of r and s is sorted by (y, tag, uid) with PSRS,
//     so the partition is balanced even when one value dominates;
//  2. values wholly inside one server are joined locally by the local
//     join kernel (relation.HashJoin);
//  3. values crossing server boundaries are fixed up with a grid
//     Cartesian product over the servers that hold them.
//
// Load O(sqrt(OUT/p) + IN/p); four rounds (two for PSRS, one boundary
// exchange, one fix-up shuffle).
func SortJoin(c *mpc.Cluster, r, s *relation.Relation, outName string, seed uint64) *Result {
	y := joinAttr(r, s)
	// Build the tagged union: (y, tag, uid, rest...) where rest has the
	// non-join attributes of both sides (padded for the other side).
	rRest := restAttrs(r, y)
	sRest := restAttrs(s, y)
	union := relation.New(outName+":u", append([]string{y, "_tag", "_uid"}, "_payload")...)
	// To keep the union schema rank-1 we pack each side's single rest
	// attribute; the tutorial's joins are binary relations. Guard:
	if len(rRest) != 1 || len(sRest) != 1 {
		panic("join2: SortJoin supports binary relations R(x,y) ⋈ S(y,z)")
	}
	uid := relation.Value(0)
	rc, ry := r.MustCol(rRest[0]), r.MustCol(y)
	for i := 0; i < r.Len(); i++ {
		union.Append(r.Row(i)[ry], 0, uid, r.Row(i)[rc])
		uid++
	}
	sc, sy := s.MustCol(sRest[0]), s.MustCol(y)
	for i := 0; i < s.Len(); i++ {
		union.Append(s.Row(i)[sy], 1, uid, s.Row(i)[sc])
		uid++
	}
	c.ScatterRoundRobin(union)
	c.Note("join2.SortJoin %s ⋈ %s on %s (union %d tuples)", r.Name(), s.Name(), y, union.Len())
	start := c.Metrics().Rounds()

	// Phase 1: parallel sort by (y, tag, uid).
	sorted := outName + ":sorted"
	sortmpc.PSRS(c, outName+":u", []string{y, "_tag", "_uid"}, sorted)
	c.DeleteAll(outName + ":u")

	// Phase 2: boundary exchange — every server broadcasts its
	// fragment's first/last y value and its local R/S counts for them,
	// so everyone can identify crossing values and their global degrees.
	c.Round("sortjoin:bounds", func(srv *mpc.Server, out *mpc.Out) {
		st := out.Open(outName+":bounds", "srv", "v", "dr", "ds")
		frag := srv.Rel(sorted)
		if frag == nil || frag.Len() == 0 {
			return
		}
		col := frag.MustCol(y)
		tcol := frag.MustCol("_tag")
		first, last := frag.Row(0)[col], frag.Row(frag.Len() - 1)[col]
		for _, v := range []relation.Value{first, last} {
			dr, ds := 0, 0
			for i := 0; i < frag.Len(); i++ {
				if frag.Row(i)[col] == v {
					if frag.Row(i)[tcol] == 0 {
						dr++
					} else {
						ds++
					}
				}
			}
			st.Broadcast(relation.Value(srv.ID()), v, relation.Value(dr), relation.Value(ds))
			if first == last {
				break
			}
		}
	})
	// Identify crossing values: y values reported by ≥ 2 servers.
	type crossInfo struct {
		value   relation.Value
		servers []int
		dr, ds  int
	}
	crossing := map[relation.Value]*crossInfo{}
	if brel := c.Server(0).Rel(outName + ":bounds"); brel != nil {
		perValue := map[relation.Value]map[int][2]int{}
		for i := 0; i < brel.Len(); i++ {
			row := brel.Row(i)
			v := row[1]
			if perValue[v] == nil {
				perValue[v] = map[int][2]int{}
			}
			e := perValue[v][int(row[0])]
			// A server may report the same value twice (first == last
			// guarded above); take the max counts.
			if int(row[2]) > e[0] {
				e[0] = int(row[2])
			}
			if int(row[3]) > e[1] {
				e[1] = int(row[3])
			}
			perValue[v][int(row[0])] = e
		}
		for v, servers := range perValue {
			if len(servers) < 2 {
				continue
			}
			ci := &crossInfo{value: v}
			for sid, e := range servers {
				ci.servers = append(ci.servers, sid)
				ci.dr += e[0]
				ci.ds += e[1]
			}
			sort.Ints(ci.servers)
			crossing[v] = ci
		}
	}
	c.DeleteAll(outName + ":bounds")

	// Build grid plans for crossing values over their own server ranges.
	type crossPlan struct {
		offset, p1, p2 int
	}
	plans := map[relation.Value]crossPlan{}
	var crossVals []relation.Value
	for v := range crossing {
		crossVals = append(crossVals, v)
	}
	sort.Slice(crossVals, func(a, b int) bool { return crossVals[a] < crossVals[b] })
	for _, v := range crossVals {
		ci := crossing[v]
		nServers := ci.servers[len(ci.servers)-1] - ci.servers[0] + 1
		p1, p2 := GridShares(ci.dr, ci.ds, nServers)
		plans[v] = crossPlan{offset: ci.servers[0], p1: p1, p2: p2}
	}

	// Phase 3: fix-up shuffle. Crossing tuples move into their value's
	// grid; everything else stays put.
	c.Round("sortjoin:cross", func(srv *mpc.Server, out *mpc.Out) {
		frag := srv.Rel(sorted)
		if frag == nil || frag.Len() == 0 {
			return
		}
		stR := out.Open(outName+":xr", y, rRest[0])
		stS := out.Open(outName+":xs", y, sRest[0])
		col := frag.MustCol(y)
		tcol := frag.MustCol("_tag")
		pcol := frag.MustCol("_payload")
		kept := frag.Empty()
		for i := 0; i < frag.Len(); i++ {
			row := frag.Row(i)
			pl, isCross := plans[row[col]]
			if !isCross {
				kept.AppendRow(row)
				continue
			}
			if row[tcol] == 0 {
				gr := srv.Rng().Intn(pl.p1)
				for gc := 0; gc < pl.p2; gc++ {
					stR.Send(pl.offset+gr*pl.p2+gc, row[col], row[pcol])
				}
			} else {
				gc := srv.Rng().Intn(pl.p2)
				for gr := 0; gr < pl.p1; gr++ {
					stS.Send(pl.offset+gr*pl.p2+gc, row[col], row[pcol])
				}
			}
		}
		srv.Put(kept.Rename(sorted))
	})

	// Local join: the kernel joins the non-crossing runs and the
	// crossing grids.
	rSchema := []string{rRest[0], y} // R(x, y)
	sSchema := []string{y, sRest[0]} // S(y, z)
	outSchema := []string{rRest[0], y, sRest[0]}
	c.LocalStep(func(srv *mpc.Server) {
		rf := relation.New(r.Name(), rSchema...)
		sf := relation.New(s.Name(), sSchema...)
		if frag := srv.Rel(sorted); frag != nil {
			col := frag.MustCol(y)
			tcol := frag.MustCol("_tag")
			pcol := frag.MustCol("_payload")
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				if row[tcol] == 0 {
					rf.Append(row[pcol], row[col])
				} else {
					sf.Append(row[col], row[pcol])
				}
			}
		}
		local := relation.HashJoin(outName, rf, sf)
		if xr := srv.Rel(outName + ":xr"); xr != nil {
			xs := srv.RelOrEmpty(outName+":xs", y, sRest[0])
			xrR := relation.New(r.Name(), rSchema...)
			for i := 0; i < xr.Len(); i++ {
				xrR.Append(xr.Row(i)[1], xr.Row(i)[0])
			}
			cross := relation.HashJoin(outName, xrR, xs.Rename(s.Name()))
			local.AppendAll(cross.Project(outName, outSchema...))
		}
		srv.Put(local.Project(outName, outSchema...))
		srv.Delete(sorted)
		srv.Delete(outName + ":xr")
		srv.Delete(outName + ":xs")
	})
	return &Result{Rounds: c.Metrics().Rounds() - start}
}

func restAttrs(r *relation.Relation, y string) []string {
	var rest []string
	for _, a := range r.Attrs() {
		if a != y {
			rest = append(rest, a)
		}
	}
	return rest
}
