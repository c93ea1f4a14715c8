package join2

import (
	"fmt"
	"testing"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
	"mpcquery/internal/testkit"
	"mpcquery/internal/workload"
)

// knownHeavyCases are two-way inputs R(x,y), S(y,z) by where their heavy
// hitters sit at p = 8: 200 light join values on each side, plus planted
// heavy values.
func knownHeavyCases() []struct {
	name string
	rels map[string]*relation.Relation
} {
	pair := func(rKeys []relation.Value, rDeg []int, sKeys []relation.Value, sDeg []int) map[string]*relation.Relation {
		return map[string]*relation.Relation{
			"R": workload.PlantHeavy("R", "y", "x", 200, 1000, rKeys, rDeg).Project("R", "x", "y"),
			"S": workload.PlantHeavy("S", "y", "z", 200, 1000, sKeys, sDeg),
		}
	}
	return []struct {
		name string
		rels map[string]*relation.Relation
	}{
		{"none", pair(nil, nil, nil, nil)},
		{"one on both sides", pair([]relation.Value{7}, []int{300}, []relation.Value{7}, []int{250})},
		{"several", pair([]relation.Value{1, 2, 3}, []int{300, 150, 60}, []relation.Value{2, 3, 4}, []int{250, 40, 300})},
		{"S only", pair([]relation.Value{7}, []int{5}, []relation.Value{7}, []int{400})},
		{"at the threshold", pair(nil, nil, []relation.Value{7}, []int{57})}, // (400+57)/8 = 57
	}
}

// TestKnownHeavyCases pins what each case covers: the heavy hitters at
// p = 8, and on which side they reach the threshold.
func TestKnownHeavyCases(t *testing.T) {
	want := map[string]string{
		"none":              "[]",
		"one on both sides": "[{7 [300 250]}]",
		"several":           "[{1 [300 0]} {2 [150 250]} {4 [0 300]}]",
		"S only":            "[{7 [5 400]}]",
		"at the threshold":  "[{7 [0 57]}]",
	}
	for _, tc := range knownHeavyCases() {
		r, s := tc.rels["R"], tc.rels["S"]
		hh, threshold := HeavyHitters(r, 1, s, 0, 8)
		if got := fmt.Sprint(hh); got != want[tc.name] {
			t.Errorf("%s: heavy hitters %s at threshold %d, want %s", tc.name, got, threshold, want[tc.name])
		}
	}
}

// TestSkewJoinKnownRoutesAsInRound is the differential wall of the
// one-round skew join: given the heavy hitters the planner computes, the
// skewjoin descriptor's one round must route exactly as SkewJoin's
// third round, after its two rounds found the same heavy hitters —
// round stats, trace events and every fragment — on both transports.
func TestSkewJoinKnownRoutesAsInRound(t *testing.T) {
	q := hypergraph.TwoWayJoin()
	for _, tc := range knownHeavyCases() {
		for _, p := range []int{1, 4, 8, 27} {
			for _, backend := range []string{"local", "tcp"} {
				t.Run(fmt.Sprintf("%s/p%d/%s", tc.name, p, backend), func(t *testing.T) {
					cluster := func() *mpc.Cluster {
						c := mpc.NewCluster(p, 1)
						if backend == "tcp" {
							c = testkit.NewTCPCluster(t, p, 1)
						}
						return c
					}
					const seed = 99
					in := cluster()
					bound := cost.BindAtoms(q, tc.rels)
					SkewJoin(in, bound["R"], bound["S"], "out", seed)
					one := cluster()
					if err := algo("skewjoin")(one, q, tc.rels, "out", seed, nil); err != nil {
						t.Fatal(err)
					}
					testkit.AssertSameLastRound(t, in, one)
				})
			}
		}
	}
}

// TestSkewJoinRunRoutesByHandedHitters: handed heavy hitters, the
// skewjoin descriptor routes by them and makes no count of its own. At
// p = 8, handed the count it would make it routes as SkewJoinKnown on
// that count, and handed none on a skewed input it routes as
// SkewJoinKnown with none, hashing the heavy values too.
func TestSkewJoinRunRoutesByHandedHitters(t *testing.T) {
	q := hypergraph.TwoWayJoin()
	for _, tc := range knownHeavyCases() {
		bound := cost.BindAtoms(q, tc.rels)
		hh, _ := HeavyHitters(bound["R"], 1, bound["S"], 0, 8)
		for _, handed := range [][]stats.Hitter{hh, nil} {
			t.Run(fmt.Sprintf("%s/%d handed", tc.name, len(handed)), func(t *testing.T) {
				const seed = 99
				want := mpc.NewCluster(8, 1)
				SkewJoinKnown(want, bound["R"], bound["S"], "out", seed, handed)
				got := mpc.NewCluster(8, 1)
				if err := algo("skewjoin")(got, q, tc.rels, "out", seed, &stats.Known{Join: handed}); err != nil {
					t.Fatal(err)
				}
				testkit.AssertSameLastRound(t, want, got)
			})
		}
	}
}
