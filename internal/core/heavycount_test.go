package core

import (
	"fmt"
	"reflect"
	"testing"

	"mpcquery/internal/hypercube"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/join2"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
	"mpcquery/internal/workload"
)

// skewhcCount is every variable's heavy values, as the skewhc
// descriptor counts them at p.
func skewhcCount(req Request, p int) *stats.Known {
	q, rels := req.Query, req.Relations
	k := &stats.Known{Vars: make([][]relation.Value, len(q.Vars()))}
	for i, v := range q.Vars() {
		k.Vars[i] = hypercube.HeavyValues(q, rels, v, hypercube.Threshold(q, rels, p))
	}
	return k
}

// TestSkewRequestCountsHeavyHittersOnce: a request that runs skewjoin or
// skewhc counts its heavy hitters once. Auto-planned, the plan counts
// them and hands its count to the descriptor's Run, which routes by it
// and counts none of its own (join2's and hypercube's
// RoutesByHandedHitters tests); forced, the plan counts nothing and the
// Run, handed nil, counts once for itself. At p = 8 the inputs are a
// Zipf(1.5) join column against a permutation, zipf_join's shape; a
// triangle whose heavy z (share 2) comes after x and y, which the plan
// counts light first; and a path whose heavy x1 (share > 1) comes after
// x0, heavy too but of share 1, which the plan counts only then.
func TestSkewRequestCountsHeavyHittersOnce(t *testing.T) {
	const p, n = 8, 4000
	join := Request{Query: hypergraph.TwoWayJoin(), Relations: map[string]*relation.Relation{
		"R": workload.Zipf("R", []string{"y", "x"}, n, n, 1.5, 1).Project("R", "x", "y"),
		"S": workload.Matching("S", []string{"y", "z"}, n),
	}}
	hh, _ := join2.HeavyHitters(join.Relations["R"], 1, join.Relations["S"], 0, p)
	tri := Request{Query: hypergraph.Triangle(), Relations: map[string]*relation.Relation{
		"R": relation.New("R", "x", "y"), "S": relation.New("S", "y", "z"), "T": relation.New("T", "z", "x")}}
	path := Request{Query: hypergraph.Path(3), Relations: map[string]*relation.Relation{}}
	for _, a := range path.Query.Atoms {
		path.Relations[a.Name] = relation.New(a.Name, a.Vars...)
	}
	for i := relation.Value(0); i < 400; i++ {
		tri.Relations["R"].Append(i, i+1)
		tri.Relations["S"].Append(i+1, i%2) // z = 0, …, 4 are heavy
		tri.Relations["T"].Append(i%5, i)
		path.Relations[path.Query.Atoms[0].Name].Append(i%2, i) // x0 = 0, 1 are heavy
		path.Relations[path.Query.Atoms[1].Name].Append(i%3, i) // and x1 = 0, 1, 2
		path.Relations[path.Query.Atoms[2].Name].Append(i, i)
	}
	triCount, pathCount := skewhcCount(tri, p), skewhcCount(path, p)
	if len(hh) == 0 || fmt.Sprint(triCount.Vars) != "[[] [] [0 1 2 3 4]]" || fmt.Sprint(pathCount.Vars) != "[[0 1] [0 1 2] [] []]" {
		t.Fatalf("heavy hitters %v on the join, %v on the triangle and %v on the path", hh, triCount.Vars, pathCount.Vars)
	}
	for _, tc := range []struct {
		req   Request
		alg   Algorithm
		count *stats.Known
	}{
		{join, AlgSkewJoin, &stats.Known{Join: hh}},
		{tri, AlgSkewHC, triCount},
		{path, AlgSkewHC, pathCount},
	} {
		for _, forced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/%s/forced=%v", tc.req.Query.Name, tc.alg, forced), func(t *testing.T) {
				handed := spyKnown(t)
				req := tc.req
				if forced {
					req.Algorithm = tc.alg
				}
				ex, err := NewEngine(p, 1).Execute(req)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Algorithm != tc.alg || len(*handed) != 1 {
					t.Fatalf("ran %s (%s) with %d Runs, want %s once", ex.Algorithm, ex.Reason, len(*handed), tc.alg)
				}
				got := (*handed)[0]
				switch {
				case forced && got != nil:
					t.Errorf("forced: Run handed %+v, want nil: the plan counts nothing", *got)
				case !forced && (got == nil || !reflect.DeepEqual(*got, *tc.count)):
					t.Errorf("auto: Run handed %+v, want the plan's count %+v", got, *tc.count)
				}
			})
		}
	}
}
