package yannakakis

import (
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
		hypergraph.Path(3),
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
// level contributes two upward rounds (keyed semijoin + intersect) and
// one downward round, and the join phase is a single HyperCube round:
// r = 3·(depth−1) + 1 where depth = number of tree levels.
func TestGYMOptimizedDiff(t *testing.T) {
	cfg := testkit.DefaultConfig()
	cfg.Gen = diffGen()
	cfg.Rounds = func(q hypergraph.Query, p int) int {
		return 3*(len(treeOf(q).Levels())-1) + 1
	}
	for _, q := range diffQueries() {
		testkit.RunDiff(t, q, cfg, algo("gym-opt"))
	}
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
				got.Dedup()
				want := testkit.OracleJoin(q, rels)
				if !testkit.BagEqual(got, want) {
					t.Fatalf("%s/%s/seed%d: %s", q.Name, skew, seed, testkit.DiffSample(got, want))
				}
			}
		}
	}
}
