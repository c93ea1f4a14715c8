package hypercube

import (
	"fmt"
	"slices"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
)

// detectionPin is what every server receives in a two-round heavy-hitter
// detection: its summaries in the first round, and the heavy count,
// which every server receives alike, in the second.
type detectionPin struct {
	degrees []int64
	heavy   int64
}

// TestDetectionRounds pins what each server receives in the two
// detection rounds of RunSkewHC — on the triangle, star3 and path4 with
// heavy hitters on no variable, the first, or the first two — and of
// HeavyLightTriangle on the hub triangle: one summary per distinct
// (variable, value) a server holds, sent to the value's owner, then one
// broadcast tuple per heavy hitter. The counts are those the map-based
// rounds metered before cost.DetectHeavy replaced them, under the
// detection seeds of that time (the query seed is now passed to the
// detection unchanged, so the runs below take those seeds as query
// seeds); a changed owner function, or a server that stops sending
// exactly one summary per distinct value, moves them.
func TestDetectionRounds(t *testing.T) {
	want := map[string]detectionPin{
		"triangle/heavy0/p8":  {[]int64{90, 107, 86, 89, 88, 83, 93, 82}, 0},
		"triangle/heavy1/p8":  {[]int64{83, 95, 74, 81, 78, 75, 86, 74}, 1},
		"triangle/heavy2/p8":  {[]int64{75, 98, 61, 73, 68, 67, 71, 62}, 2},
		"star3/heavy0/p8":     {[]int64{81, 105, 82, 104, 86, 75, 96, 89}, 0},
		"star3/heavy1/p8":     {[]int64{76, 91, 72, 78, 71, 64, 82, 73}, 1},
		"star3/heavy2/p8":     {[]int64{74, 96, 68, 73, 64, 59, 75, 66}, 2},
		"path4/heavy0/p8":     {[]int64{109, 140, 106, 119, 113, 124, 133, 113}, 0},
		"path4/heavy1/p8":     {[]int64{108, 133, 103, 114, 107, 119, 130, 111}, 1},
		"path4/heavy2/p8":     {[]int64{100, 136, 90, 106, 97, 111, 115, 99}, 2},
		"hl/p8":               {[]int64{3, 1, 2, 8, 2, 0, 0, 2}, 1},
		"triangle/heavy0/p27": {[]int64{34, 33, 25, 29, 22, 22, 32, 23, 27, 26, 30, 30, 23, 36, 29, 23, 17, 32, 29, 27, 20, 20, 24, 24, 30, 23, 30}, 0},
		"triangle/heavy1/p27": {[]int64{31, 29, 24, 26, 18, 19, 26, 20, 24, 33, 29, 25, 20, 31, 26, 18, 15, 30, 27, 24, 18, 17, 24, 22, 27, 21, 25}, 1},
		"triangle/heavy2/p27": {[]int64{25, 26, 20, 23, 16, 16, 22, 19, 22, 30, 34, 22, 19, 28, 23, 10, 15, 25, 26, 18, 17, 15, 21, 19, 26, 18, 23}, 2},
		"star3/heavy0/p27":    {[]int64{32, 33, 19, 32, 24, 24, 25, 26, 32, 19, 33, 22, 32, 31, 24, 31, 22, 29, 24, 27, 23, 17, 27, 19, 33, 31, 29}, 0},
		"star3/heavy1/p27":    {[]int64{29, 23, 17, 26, 21, 19, 19, 22, 25, 26, 31, 15, 25, 26, 21, 25, 14, 27, 22, 24, 16, 14, 24, 18, 31, 27, 22}, 1},
		"star3/heavy2/p27":    {[]int64{27, 20, 16, 24, 21, 17, 17, 22, 25, 25, 38, 13, 25, 24, 20, 21, 14, 24, 22, 22, 16, 13, 21, 15, 31, 24, 21}, 2},
		"path4/heavy0/p27":    {[]int64{40, 36, 36, 36, 33, 32, 41, 33, 37, 36, 43, 40, 30, 38, 35, 35, 28, 42, 28, 39, 31, 26, 40, 33, 38, 26, 48}, 0},
		"path4/heavy1/p27":    {[]int64{40, 33, 35, 34, 31, 30, 37, 32, 35, 44, 42, 37, 29, 36, 33, 34, 28, 40, 27, 38, 29, 25, 40, 33, 38, 25, 44}, 1},
		"path4/heavy2/p27":    {[]int64{34, 30, 31, 31, 29, 27, 33, 31, 33, 41, 47, 34, 28, 33, 30, 26, 28, 35, 26, 32, 28, 23, 37, 30, 37, 22, 42}, 2},
		"hl/p27":              {[]int64{1, 30, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0}, 1},
	}
	for _, p := range []int{8, 27} {
		for _, q := range []hypergraph.Query{hypergraph.Triangle(), hypergraph.Star(3), hypergraph.Path(4)} {
			vars := q.Vars()
			for k := range 3 {
				name := fmt.Sprintf("%s/heavy%d/p%d", q.Name, k, p)
				t.Run(name, func(t *testing.T) {
					rels := plantHeavy(q, 120, func(_, i int, v string) bool { return i%3 == 0 && slices.Contains(vars[:k], v) })
					c := mpc.NewCluster(p, 1)
					if _, err := RunSkewHC(c, q, rels, "out", 0x5eed, 0, LocalGeneric); err != nil {
						t.Fatal(err)
					}
					checkDetection(t, c, "skewhc", want[name])
				})
			}
		}
		name := fmt.Sprintf("hl/p%d", p)
		t.Run(name, func(t *testing.T) {
			c := mpc.NewCluster(p, 1)
			if _, err := HeavyLightTriangle(c, hubTriangle(300), "out", 42^0x2f); err != nil {
				t.Fatal(err)
			}
			checkDetection(t, c, "hl", want[name])
		})
	}
}

// checkDetection checks c's first two rounds, prefix:degrees and
// prefix:heavy, against pin.
func checkDetection(t *testing.T, c *mpc.Cluster, prefix string, pin detectionPin) {
	t.Helper()
	heavy := make([]int64, c.P())
	for i := range heavy {
		heavy[i] = pin.heavy
	}
	for r, want := range [][]int64{pin.degrees, heavy} {
		st := c.Metrics().RoundStats()[r]
		name := prefix + []string{":degrees", ":heavy"}[r]
		if st.Name != name || !slices.Equal(st.Recv, want) {
			t.Errorf("round %d %q received %v, want %q receiving %v", r, st.Name, st.Recv, name, want)
		}
	}
}
