package join2

import (
	"fmt"
	"slices"
	"testing"

	"mpcquery/internal/cost"
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

// TestSkewJoinDetectionRounds pins what each server receives in
// SkewJoin's two detection rounds on knownHeavyCases: one summary per
// distinct join value a server holds, sent to the value's owner h(v),
// then one broadcast tuple per heavy hitter. The counts are those the
// map-based rounds metered before cost.DetectHeavy replaced them; a
// changed owner function, or a server that stops sending exactly one
// summary per distinct value, moves them.
func TestSkewJoinDetectionRounds(t *testing.T) {
	want := map[string]detectionPin{
		"none/p8":               {[]int64{24, 26, 23, 28, 23, 24, 21, 31}, 0},
		"one on both sides/p8":  {[]int64{24, 26, 23, 28, 31, 24, 21, 31}, 1},
		"several/p8":            {[]int64{24, 34, 23, 28, 23, 40, 29, 31}, 3},
		"S only/p8":             {[]int64{24, 26, 23, 28, 31, 24, 21, 31}, 1},
		"at the threshold/p8":   {[]int64{24, 26, 23, 28, 31, 24, 21, 31}, 1},
		"none/p27":              {[]int64{10, 6, 5, 4, 5, 3, 9, 9, 3, 6, 8, 11, 9, 3, 7, 12, 4, 6, 9, 6, 10, 6, 9, 11, 7, 13, 9}, 0},
		"one on both sides/p27": {[]int64{10, 6, 5, 4, 32, 3, 9, 9, 3, 6, 8, 11, 9, 3, 7, 12, 4, 6, 9, 6, 10, 6, 9, 11, 7, 13, 9}, 1},
		"several/p27":           {[]int64{10, 6, 5, 4, 5, 3, 36, 9, 3, 6, 8, 11, 9, 3, 7, 39, 4, 6, 9, 6, 10, 6, 9, 38, 34, 13, 9}, 4},
		"S only/p27":            {[]int64{10, 6, 5, 4, 32, 3, 9, 9, 3, 6, 8, 11, 9, 3, 7, 12, 4, 6, 9, 6, 10, 6, 9, 11, 7, 13, 9}, 1},
		"at the threshold/p27":  {[]int64{10, 6, 5, 4, 32, 3, 9, 9, 3, 6, 8, 11, 9, 3, 7, 12, 4, 6, 9, 6, 10, 6, 9, 11, 7, 13, 9}, 1},
	}
	q := hypergraph.TwoWayJoin()
	for _, tc := range knownHeavyCases() {
		for _, p := range []int{8, 27} {
			name := fmt.Sprintf("%s/p%d", tc.name, p)
			t.Run(name, func(t *testing.T) {
				c := mpc.NewCluster(p, 1)
				bound := cost.BindAtoms(q, tc.rels)
				SkewJoin(c, bound["R"], bound["S"], "out", 99)
				pin := want[name]
				heavy := make([]int64, p)
				for i := range heavy {
					heavy[i] = pin.heavy
				}
				for r, want := range [][]int64{pin.degrees, heavy} {
					st := c.Metrics().RoundStats()[r]
					name := []string{"skewjoin:degrees", "skewjoin:heavy"}[r]
					if st.Name != name || !slices.Equal(st.Recv, want) {
						t.Errorf("round %d %q received %v, want %q receiving %v", r, st.Name, st.Recv, name, want)
					}
					// Summaries and hitters are both (v, dR, dS).
					for i, n := range st.Recv {
						if st.RecvWords[i] != 3*n {
							t.Errorf("round %q: server %d received %d words in %d tuples, want 3 a tuple", name, i, st.RecvWords[i], n)
						}
					}
				}
			})
		}
	}
}
