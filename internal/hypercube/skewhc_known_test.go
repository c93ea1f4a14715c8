package hypercube

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
	"mpcquery/internal/testkit"
)

// plantHeavy generates n rows per atom of q over a sparse domain that
// excludes 0, except that variable v of row i of atom a is 0 wherever
// zero(a, i, v) holds.
func plantHeavy(q hypergraph.Query, n int, zero func(a, i int, v string) bool) map[string]*relation.Relation {
	rng := rand.New(rand.NewSource(1))
	rels := map[string]*relation.Relation{}
	for ai, a := range q.Atoms {
		r := relation.New(a.Name, a.Vars...)
		row := make([]relation.Value, len(a.Vars))
		for i := 0; i < n; i++ {
			for j, v := range a.Vars {
				row[j] = relation.Value(1 + rng.Intn(100*n))
				if zero(ai, i, v) {
					row[j] = 0
				}
			}
			r.AppendRow(row)
		}
		rels[a.Name] = r
	}
	return rels
}

// TestSkewHCKnownRoutesAsInRound is the differential wall of one-round
// SkewHC: with each variable's heavy hitters taken from the inputs, the
// skewhc descriptor's one round must route exactly as RunSkewHC's third
// round, after its two rounds found the same heavy hitters — round
// stats, trace events and every pattern fragment — on both transports.
// The inputs have heavy hitters on no variable, one, several or all
// (0 in every third row binding them), or one value whose degree is
// exactly the threshold.
func TestSkewHCKnownRoutesAsInRound(t *testing.T) {
	const n = 120
	for _, q := range []hypergraph.Query{hypergraph.Triangle(), hypergraph.Star(3), hypergraph.Path(4)} {
		vars := q.Vars()
		first := slices.IndexFunc(q.Atoms, func(a hypergraph.Atom) bool { return a.HasVar(vars[0]) })
		for _, p := range []int{1, 4, 8, 27} {
			type instance struct {
				name  string
				rels  map[string]*relation.Relation
				heavy []string // the variables with heavy hitters, when p ≥ 4
			}
			instances := []instance{{
				name:  "at the threshold",
				rels:  plantHeavy(q, n, func(a, i int, v string) bool { return a == first && v == vars[0] && i < n/p }),
				heavy: vars[:1],
			}}
			for _, heavy := range [][]string{nil, vars[:1], vars[:2], vars} {
				rels := plantHeavy(q, n, func(_, i int, v string) bool { return i%3 == 0 && slices.Contains(heavy, v) })
				instances = append(instances, instance{fmt.Sprintf("heavy %v", heavy), rels, heavy})
			}
			for _, in := range instances {
				var got []string
				for _, v := range vars {
					if len(HeavyValues(q, in.rels, v, Threshold(q, in.rels, p))) > 0 {
						got = append(got, v)
					}
				}
				if (p >= 4 || in.name == "at the threshold") && !slices.Equal(got, in.heavy) {
					t.Fatalf("%s, %s, p = %d: heavy hitters on %v, want %v", q.Name, in.name, p, got, in.heavy)
				}
				for _, backend := range []string{"local", "tcp"} {
					t.Run(fmt.Sprintf("%s/%s/p%d/%s", q.Name, in.name, p, backend), func(t *testing.T) {
						cluster := func() *mpc.Cluster {
							c := mpc.NewCluster(p, 1)
							if backend == "tcp" {
								c = testkit.NewTCPCluster(t, p, 1)
							}
							return c
						}
						const seed = 99
						c := cluster()
						if _, err := RunSkewHC(c, q, in.rels, "out", seed, 0, LocalGeneric); err != nil {
							t.Fatal(err)
						}
						one := cluster()
						if err := algo("skewhc")(one, q, in.rels, "out", seed, nil); err != nil {
							t.Fatal(err)
						}
						testkit.AssertSameLastRound(t, c, one)
					})
				}
			}
		}
	}
}

// TestSkewHCRunRoutesByHandedHitters: handed each variable's heavy
// hitters, the skewhc descriptor routes by them and makes no count of
// its own. On a triangle with a heavy value on every variable at p = 8,
// handed the count it would make it routes as RunSkewHCKnown on that
// count, and handed none it routes as RunSkewHCKnown with none.
func TestSkewHCRunRoutesByHandedHitters(t *testing.T) {
	const p, seed = 8, 99
	q := hypergraph.Triangle()
	rels := plantHeavy(q, 120, func(_, i int, _ string) bool { return i%3 == 0 })
	counted := make([][]relation.Value, len(q.Vars()))
	for i, v := range q.Vars() {
		counted[i] = HeavyValues(q, rels, v, Threshold(q, rels, p))
	}
	for _, handed := range [][][]relation.Value{counted, make([][]relation.Value, len(q.Vars()))} {
		want := mpc.NewCluster(p, 1)
		if _, err := RunSkewHCKnown(want, q, rels, "out", seed, handed, LocalGeneric); err != nil {
			t.Fatal(err)
		}
		got := mpc.NewCluster(p, 1)
		if err := algo("skewhc")(got, q, rels, "out", seed, &stats.Known{Vars: handed}); err != nil {
			t.Fatal(err)
		}
		testkit.AssertSameLastRound(t, want, got)
	}
}
