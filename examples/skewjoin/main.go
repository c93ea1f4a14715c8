// Skew demo: joins a Zipf-skewed clickstream against a user table with
// the plain parallel hash join and with the heavy-hitter-aware skew
// join (slides 27–30), showing how the hash join's maximum load
// collapses onto the server owning the hot key while the skew join
// spreads each heavy hitter over a dedicated grid of servers.
package main

import (
	"fmt"

	"mpcquery/internal/join2"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

func main() {
	const (
		nClicks = 60000
		nUsers  = 8000
		servers = 32
	)
	// clicks(page, user): user activity is Zipf — a few power users
	// dominate the stream.
	clicks := workload.Zipf("clicks", []string{"user", "page"}, nClicks, nUsers, 1.3, 7).
		Project("clicks", "page", "user")
	// users(user, profile): unique key per user, as a dimension table.
	users := workload.Matching("users", []string{"user", "profile"}, nUsers)

	in := clicks.Len() + users.Len()
	heavy, _ := join2.HeavyHitters(clicks, clicks.MustCol("user"), users, users.MustCol("user"), servers)
	outSize := relation.HashJoin("ref", clicks, users).Len()
	fmt.Println("=== skew-aware two-way join (slides 27–30) ===")
	fmt.Printf("input        %d clicks ⋈ %d users on `user`, p = %d\n", nClicks, nUsers, servers)
	fmt.Printf("skew         %d heavy hitters above IN/p = %d; output %d tuples\n",
		len(heavy), in/servers, outSize)

	hash := mpc.NewCluster(servers, 1)
	join2.HashJoin(hash, clicks, users, "out", 99)
	fmt.Printf("hash join    L = %-8d (ideal IN/p = %d)\n", hash.Metrics().MaxLoad(), in/servers)

	skew := mpc.NewCluster(servers, 1)
	join2.SkewJoin(skew, clicks, users, "out", 99)
	fmt.Printf("skew join    L = %-8d in %d rounds (degrees + heavy broadcast + shuffle)\n",
		skew.Metrics().MaxLoad(), skew.Metrics().Rounds())

	sortj := mpc.NewCluster(servers, 1)
	join2.SortJoin(sortj, clicks, users, "out", 99)
	fmt.Printf("sort join    L = %-8d in %d rounds (PSRS + boundary fix-up)\n",
		sortj.Metrics().MaxLoad(), sortj.Metrics().Rounds())

	// All three compute the same result.
	want := relation.HashJoin("want", clicks, users)
	for name, c := range map[string]*mpc.Cluster{"hash": hash, "skew": skew, "sort": sortj} {
		if !c.Gather("out").EqualAsSets(want) {
			panic(name + " join produced a wrong result")
		}
	}
	fmt.Println("verified     all three algorithms agree with the local reference")
}
