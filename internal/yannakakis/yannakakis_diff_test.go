package yannakakis

import (
	"sort"
	"strings"
	"testing"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/testkit"
)

// Differential tests: the distributed Yannakakis variants vs the
// sequential oracle on acyclic queries, with exact round counts derived
// from the join-tree structure.

// diffQueries are the acyclic shapes swept by every variant here.
func diffQueries() []hypergraph.Query {
	return []hypergraph.Query{
		hypergraph.Path(2),
		hypergraph.Path(3),
		hypergraph.Path(4),
		hypergraph.Star(4),
		hypergraph.SlideTree(),
	}
}

// diffGen keeps the heavy-hitter instances tractable: the star's center
// variable is the skewed attribute of all four atoms, so output size
// grows as (heavy degree)^4 — 40 tuples (heavy degree 12) keeps that
// near 2·10^4 instead of 10^6.
func diffGen() testkit.GenConfig {
	return testkit.GenConfig{Tuples: 40}
}

// algo returns the Run of this package's descriptor for name — the
// entry point core.Engine dispatches to.
func algo(name string) testkit.Algo { return cost.Lookup(Plannables(), name).Run }

func treeOf(q hypergraph.Query) *hypergraph.JoinTree {
	ok, jt := hypergraph.IsAcyclic(q)
	if !ok {
		panic("yannakakis diff test: query not acyclic: " + q.Name)
	}
	return jt
}

// TestGYMDiff: vanilla distributed Yannakakis. One semijoin round per
// tree edge upward, one per edge downward, one join round per edge
// bottom-up: r = 3(n−1) exactly for an n-atom tree.
func TestGYMDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Gen = diffGen()
	cfg.Rounds = func(q hypergraph.Query, p int) int { return 3 * (len(q.Atoms) - 1) }
	for _, q := range diffQueries() {
		testkit.RunDiff(t, q, cfg, algo("gym"))
	}
}

// TestGYMOptimizedDiff: the depth-optimized variant. Every non-leaf
// level contributes one upward round, or two when a parent there has two
// or more children, and one downward round unless every child there
// already lies co-located with its parent; the join phase is one round,
// or none when every atom ends on one key.
func TestGYMOptimizedDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Gen = diffGen()
	cfg.Rounds = func(q hypergraph.Query, p int) int { return levelFormula(treeOf(q)) }
	for _, q := range diffQueries() {
		testkit.RunDiff(t, q, cfg, algo("gym-opt"))
	}
}

// levelFormula is gym-opt's round count written out from the tree: Σ
// over non-leaf levels of (1, or 2 if a parent there has ≥ 2 children),
// plus one downward round per non-leaf level with a child not
// co-located with its parent, plus 1 join round unless every atom ends
// on one key. It follows each atom's placement as the set of variables
// it is hashed on ("" for the scattered input), which is exact where
// shared keys are single variables, as in diffQueries:
//
//   - upward, a child of a parent with ≤ 2 children moves to its parent's
//     shared variables; a parent with ≤ 2 children ends on its last
//     child's, a parent with ≥ 3 on all of its variables;
//   - downward, root level first, a child not on its parent's shared
//     variables moves there; the level needs a round unless every child
//     sat there already and so did its parent.
func levelFormula(jt *hypergraph.JoinTree) int {
	q := jt.Query
	shared := func(a, b int) string {
		var vs []string
		for _, v := range q.Atoms[a].Vars {
			if q.Atoms[b].HasVar(v) {
				vs = append(vs, v)
			}
		}
		sort.Strings(vs)
		return strings.Join(vs, ",")
	}
	on := make([]string, len(q.Atoms))
	for i, chs := range jt.Children {
		switch {
		case len(chs) >= 3:
			vs := append([]string(nil), q.Atoms[i].Vars...)
			sort.Strings(vs)
			on[i] = strings.Join(vs, ",")
		case len(chs) > 0:
			on[i] = shared(i, chs[len(chs)-1])
		}
	}
	for i, p := range jt.Parent {
		if p >= 0 && len(jt.Children[p]) <= 2 {
			on[i] = shared(p, i)
		}
	}
	levels := jt.Levels()
	r := 0
	for _, level := range levels[:len(levels)-1] {
		up, down := 1, 0
		for _, i := range level {
			if len(jt.Children[i]) >= 2 {
				up = 2
			}
			for _, ch := range jt.Children[i] {
				if on[ch] != shared(i, ch) || on[i] != on[ch] {
					down = 1
				}
				on[ch] = shared(i, ch)
			}
		}
		r += up + down
	}
	for _, o := range on {
		if o != on[0] {
			return r + 1 // the join round
		}
	}
	return r
}

// TestIterativeBinaryJoinDiff: the ablation baseline joining atoms one
// at a time — n−1 join rounds, no semijoin reduction.
func TestIterativeBinaryJoinDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Gen = diffGen()
	cfg.Rounds = func(q hypergraph.Query, p int) int { return len(q.Atoms) - 1 }
	for _, q := range diffQueries() {
		testkit.RunDiff(t, q, cfg, algo("binaryplan"))
	}
}

// TestSerialVsOracle cross-checks the sequential Yannakakis evaluator
// (the package's own reference path) against the testkit oracle, which
// shares no join code with it.
func TestSerialVsOracle(t *testing.T) {
	for _, q := range diffQueries() {
		for _, skew := range testkit.AllSkews {
			for _, seed := range []int64{1, 2, 3, 4, 5} {
				rels := testkit.GenInstance(q, skew, diffGen(), seed)
				got, _ := Serial(treeOf(q), rels)
				got = got.Project("out", q.Vars()...)
				want := testkit.OracleJoin(q, rels)
				if !testkit.BagEqual(got, want) {
					t.Fatalf("%s/%s/seed%d: %s", q.Name, skew, seed, testkit.DiffSample(got, want))
				}
			}
		}
	}
}
