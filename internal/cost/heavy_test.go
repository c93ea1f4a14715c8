package cost

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
	"mpcquery/internal/testkit"
)

// detectInstance builds a pool of relations — one empty, one whose
// columns hold a single value, the rest random over negative,
// full-range and small-domain values — and 1–4 groups of 1–3 of their
// columns.
func detectInstance(rng *rand.Rand) ([]*relation.Relation, [][]stats.Column) {
	extremes := []relation.Value{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1}
	pool := make([]*relation.Relation, 4)
	for i := range pool {
		attrs := []string{"a", "b", "c"}[:1+rng.Intn(3)]
		r := relation.New(fmt.Sprintf("R%d", i), attrs...)
		n := 0
		switch i {
		case 0: // empty
		case 1:
			n = 1 + rng.Intn(15)
		default:
			n = rng.Intn(20)
		}
		domain := 1 + rng.Intn(8)
		row := make([]relation.Value, len(attrs))
		for range n {
			for j := range row {
				switch {
				case i == 1:
					row[j] = -7
				case rng.Intn(4) == 0:
					row[j] = extremes[rng.Intn(len(extremes))]
				case rng.Intn(4) == 0:
					row[j] = rng.Int63() - rng.Int63()
				default:
					row[j] = relation.Value(rng.Intn(domain) - domain/2)
				}
			}
			r.AppendRow(row)
		}
		pool[i] = r
	}
	groups := make([][]stats.Column, 1+rng.Intn(4))
	for g := range groups {
		for range 1 + rng.Intn(3) {
			r := pool[rng.Intn(len(pool))]
			groups[g] = append(groups[g], stats.Column{Rel: r, Col: rng.Intn(r.Arity())})
		}
	}
	return pool, groups
}

// TestDetectHeavyIsHeavy is DetectHeavy's property test: on every
// server count and both transports, for both rules and every threshold
// from 1 to one past the pool's size, each group's hitters are exactly
// what stats.Heavy finds on the gathered fragments, and the protocol
// leaves no relation behind.
func TestDetectHeavyIsHeavy(t *testing.T) {
	for trial := range 6 {
		pool, groups := detectInstance(rand.New(rand.NewSource(int64(trial))))
		n := 0
		for _, r := range pool {
			n += r.Len()
		}
		for _, p := range []int{1, 4, 8, 27} {
			for _, backend := range []string{"local", "tcp"} {
				t.Run(fmt.Sprintf("trial%d/p%d/%s", trial, p, backend), func(t *testing.T) {
					c := mpc.NewCluster(p, 1)
					if backend == "tcp" {
						c = testkit.NewTCPCluster(t, p, 1)
					}
					for _, r := range pool {
						c.ScatterRoundRobin(r)
					}
					for i := 1; i < p; i += 2 {
						c.Server(i).Delete(pool[0].Name()) // servers with no fragment at all
					}
					gathered := make([][]stats.Column, len(groups))
					for g, cols := range groups {
						for _, col := range cols {
							gathered[g] = append(gathered[g], stats.Column{Rel: c.Gather(col.Rel.Name()), Col: col.Col})
						}
					}
					names := make([][]string, p)
					for i := range p {
						names[i] = c.Server(i).RelNames()
					}
					for _, rule := range []stats.Rule{stats.InAny, stats.Summed} {
						for th := 1; th <= n+1; th++ {
							got := DetectHeavy(c, "detect", "out", 0x5eed, groups, th, rule)
							for g := range groups {
								want := stats.Heavy(gathered[g], th, rule)
								if !slices.EqualFunc(got[g], want, func(a, b stats.Hitter) bool {
									return a.Value == b.Value && slices.Equal(a.Deg, b.Deg)
								}) {
									t.Fatalf("rule %d, threshold %d, group %d:\n got %v\nwant %v", rule, th, g, got[g], want)
								}
							}
						}
					}
					for i := range p {
						if got := c.Server(i).RelNames(); !slices.Equal(got, names[i]) {
							t.Fatalf("server %d holds %v after detection, want %v", i, got, names[i])
						}
					}
				})
			}
		}
	}
}
