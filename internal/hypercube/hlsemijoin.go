package hypercube

import (
	"math"
	"sort"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// HeavyLightTriangle implements the multi-round Heavy-Light + Semijoins
// algorithm of slides 58–60 for the triangle query
// Δ(x,y,z) = R(x,y) ⋈ S(y,z) ⋈ T(z,x):
//
//   - values of z with degree ≥ IN/p^{1/3} are heavy; there are at most
//     O(p^{1/3}) of them;
//   - the light residual (z light) runs as a one-round HyperCube with
//     cubic shares on all p servers — load O(IN/p^{2/3});
//   - each heavy value b gets its own block of p^{2/3} servers, where
//     the residual query q(z=b) = R(x,y) ⋈ S(y,b) ⋈ T(b,x) is computed
//     by two semijoin rounds (R ⋉ S_b by y, then (R ⋉ S_b) ⋉ T_b by x)
//     — also load O(IN/p^{2/3}), because semijoins ship only keys and
//     never grow intermediates.
//
// Total: 2 statistics rounds + 2 compute rounds, L = O(IN/p^{2/3}) even
// under arbitrary skew on z — the worst-case-optimal exponent that the
// one-round SkewHC only matches with its pattern machinery. (Skew on x
// or y is handled by the orthogonal symmetric decomposition; this
// implementation follows the slide's illustration, which designates z.)
func HeavyLightTriangle(c *mpc.Cluster, rels map[string]*relation.Relation, outName string, seed uint64) (*Result, error) {
	q := hypergraph.Triangle()
	bound := cost.BindAtoms(q, rels)
	p := c.P()
	in := bound["R"].Len() + bound["S"].Len() + bound["T"].Len()
	threshold := int(float64(in) / math.Cbrt(float64(p)))
	if threshold < 1 {
		threshold = 1
	}
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(bound[a.Name])
	}
	trace.Annotatef(c, "hypercube.HeavyLightTriangle (z threshold %d)", threshold)
	start := c.Metrics().Rounds()

	// Round 1: z-degree summaries (z occurs in S(y,z) and T(z,x)).
	c.Round("hl:degrees", func(srv *mpc.Server, out *mpc.Out) {
		st := out.Open(outName+":zdeg", "z", "d")
		counts := map[relation.Value]int{}
		if frag := srv.Rel("S"); frag != nil {
			col := frag.MustCol("z")
			for i := 0; i < frag.Len(); i++ {
				counts[frag.Row(i)[col]]++
			}
		}
		if frag := srv.Rel("T"); frag != nil {
			col := frag.MustCol("z")
			for i := 0; i < frag.Len(); i++ {
				counts[frag.Row(i)[col]]++
			}
		}
		vals := make([]relation.Value, 0, len(counts))
		for v := range counts {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		for _, v := range vals {
			st.Send(relation.Bucket(relation.Hash64(v, seed^0x2f), p), v, relation.Value(counts[v]))
		}
	})
	// Round 2: owners broadcast heavy z values.
	thr := threshold
	c.Round("hl:heavy", func(srv *mpc.Server, out *mpc.Out) {
		st := out.Open(outName+":zheavy", "z")
		deg := srv.Rel(outName + ":zdeg")
		if deg == nil {
			return
		}
		agg := map[relation.Value]int{}
		for i := 0; i < deg.Len(); i++ {
			agg[deg.Row(i)[0]] += int(deg.Row(i)[1])
		}
		vals := make([]relation.Value, 0, len(agg))
		for v := range agg {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		for _, v := range vals {
			if agg[v] >= thr {
				st.Broadcast(v)
			}
		}
		srv.Delete(outName + ":zdeg")
	})
	var heavyZ []relation.Value
	if hrel := c.Server(0).Rel(outName + ":zheavy"); hrel != nil {
		for i := 0; i < hrel.Len(); i++ {
			heavyZ = append(heavyZ, hrel.Row(i)[0])
		}
		sort.Slice(heavyZ, func(a, b int) bool { return heavyZ[a] < heavyZ[b] })
	}
	c.DeleteAll(outName + ":zheavy")
	heavySet := map[relation.Value]bool{}
	blockOf := map[relation.Value]int{}
	pb := floorRoot(p*p, 3) // ⌊p^{2/3}⌋ servers per heavy block
	for i, b := range heavyZ {
		heavySet[b] = true
		blockOf[b] = (i * pb) % p // blocks wrap if heavy count exceeds p^{1/3}
	}

	// Light-part HyperCube plan: cubic shares over all p servers.
	share := floorRoot(p, 3)
	lightPlan := PlanWithShares(q, []int{share, share, share}, seed)
	routeR, routeS, routeT := lightPlan.Route(q.Atom("R")), lightPlan.Route(q.Atom("S")), lightPlan.Route(q.Atom("T"))

	// Round 3: main shuffle. Light S/T tuples and all R tuples follow the
	// HyperCube routing; heavy-z tuples go to their value's block — S_b
	// key projections partitioned by h(y), T_b keys pre-placed by h(x)
	// for round 4, and R partitioned by h(y) into every heavy block.
	// R ships once per *block* (several heavy values may share a block
	// when the heavy count exceeds p^{1/3}), never per value, so the
	// block-local join cannot double-count.
	var blocks []int
	{
		seen := map[int]bool{}
		for _, b := range heavyZ {
			if !seen[blockOf[b]] {
				seen[blockOf[b]] = true
				blocks = append(blocks, blockOf[b])
			}
		}
		sort.Ints(blocks)
	}
	c.Round("hl:shuffle", func(srv *mpc.Server, out *mpc.Out) {
		stR := out.Open(outName+":R", "x", "y")
		stS := out.Open(outName+":S", "y", "z")
		stT := out.Open(outName+":T", "z", "x")
		stRb := out.Open(outName+":Rb", "blk", "x", "y")
		stSb := out.Open(outName+":Sb", "blk", "y", "z")
		stTb := out.Open(outName+":Tb", "blk", "x", "z")
		if frag := srv.Rel("R"); frag != nil {
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				routeR.Send(stR, row)
				// R participates in every heavy residual; partition by y.
				for _, blk := range blocks {
					dst := (blk + relation.Bucket(relation.Hash64(row[1], seed^0x51), pb)) % c.P()
					stRb.Send(dst, relation.Value(blk), row[0], row[1])
				}
			}
		}
		if frag := srv.Rel("S"); frag != nil {
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i) // (y, z)
				if heavySet[row[1]] {
					blk := blockOf[row[1]]
					dst := (blk + relation.Bucket(relation.Hash64(row[0], seed^0x51), pb)) % c.P()
					stSb.Send(dst, relation.Value(blk), row[0], row[1])
				} else {
					routeS.Send(stS, row)
				}
			}
		}
		if frag := srv.Rel("T"); frag != nil {
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i) // (z, x)
				if heavySet[row[0]] {
					blk := blockOf[row[0]]
					// Pre-place T_b keys where round 4 re-partitions R' by x.
					dst := (blk + relation.Bucket(relation.Hash64(row[1], seed^0x52), pb)) % c.P()
					stTb.Send(dst, relation.Value(blk), row[1], row[0])
				} else {
					routeT.Send(stT, row)
				}
			}
		}
	})
	// Local: light triangles via generic join; heavy blocks compute
	// R ⋉ S_b per (block, z).
	c.LocalStep(func(srv *mpc.Server) {
		rf := srv.RelOrEmpty(outName+":R", "x", "y").Rename("R")
		sf := srv.RelOrEmpty(outName+":S", "y", "z").Rename("S")
		tf := srv.RelOrEmpty(outName+":T", "z", "x").Rename("T")
		light := relation.GenericJoin(outName, []string{"x", "y", "z"}, rf, sf, tf)
		srv.Put(light)
		for _, n := range []string{":R", ":S", ":T"} {
			srv.Delete(outName + n)
		}
		// Heavy: semijoin R with S_b keys (same y, same block), keeping z.
		rb := srv.RelOrEmpty(outName+":Rb", "blk", "x", "y")
		sb := srv.RelOrEmpty(outName+":Sb", "blk", "y", "z")
		rsemi := relation.HashJoin(outName+":Rsemi", rb, sb) // joins on (blk, y) → (blk,x,y,z)
		srv.Put(rsemi)
		srv.Delete(outName + ":Rb")
		srv.Delete(outName + ":Sb")
	})
	// Round 4: re-partition the reduced R' by x within each block to
	// meet the pre-placed T_b keys; finish locally.
	c.Round("hl:semijoin2", func(srv *mpc.Server, out *mpc.Out) {
		frag := srv.Rel(outName + ":Rsemi")
		if frag == nil {
			return
		}
		st := out.Open(outName+":Rx", "blk", "x", "y", "z")
		for i := 0; i < frag.Len(); i++ {
			row := frag.Row(i) // (blk, x, y, z)
			blk := int(row[0])
			dst := (blk + relation.Bucket(relation.Hash64(row[1], seed^0x52), pb)) % c.P()
			st.SendRow(dst, row)
		}
		srv.Delete(outName + ":Rsemi")
	})
	c.LocalStep(func(srv *mpc.Server) {
		rx := srv.RelOrEmpty(outName+":Rx", "blk", "x", "y", "z")
		tb := srv.RelOrEmpty(outName+":Tb", "blk", "x", "z")
		heavyOut := relation.HashJoin("h", rx, tb) // joins on (blk, x, z)
		res := srv.Rel(outName)
		if res == nil {
			res = relation.New(outName, "x", "y", "z")
			srv.Put(res)
		}
		proj := heavyOut.Project(outName, "x", "y", "z")
		res.AppendAll(proj)
		srv.Delete(outName + ":Rx")
		srv.Delete(outName + ":Tb")
	})
	return &Result{OutName: outName, Rounds: c.Metrics().Rounds() - start}, nil
}

// floorRoot returns ⌊n^{1/k}⌋, at least 1, computed in integers: a
// float root is not exact, and math.Pow(125, 2.0/3.0) is 24.999…, which
// truncates to one server short of a 25-server block.
func floorRoot(n, k int) int {
	r := 1
	for {
		next := 1
		for i := 0; i < k; i++ {
			next *= r + 1
		}
		if next > n {
			return r
		}
		r++
	}
}
