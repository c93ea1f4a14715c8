package main

import (
	"math"
	"math/rand"

	"mpcquery/internal/relation"
)

// distinctUniform returns n distinct binary tuples drawn uniformly from
// [0, dom0) × [0, dom1), in draw order. It is workload.Uniform without repeated tuples:
// the engine evaluates under set semantics, so a duplicate input tuple would
// make the oracle and the engine disagree about nothing that matters.
func distinctUniform(name string, attrs [2]string, n, dom0, dom1 int, seed int64) *relation.Relation {
	if int64(n) > int64(dom0)*int64(dom1) {
		panic("bench: distinctUniform: n exceeds the domain")
	}
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(name, attrs[0], attrs[1])
	seen := make(map[[2]int64]struct{}, n)
	for r.Len() < n {
		t := [2]int64{int64(rng.Intn(dom0)), int64(rng.Intn(dom1))}
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		r.Append(t[0], t[1])
	}
	return r
}

// layeredGraph returns a random layered DAG: `layers` layers of `width`
// vertices with seed-permuted ids, every vertex having exactly `outdeg`
// successors in the next layer and `outdeg` predecessors in the one before
// (two seeded permutations per layer pair, and outdeg consecutive offsets
// between them). Its transitive closure takes exactly layers-1 semi-naive
// iterations whatever the seed and its size varies by a few per cent, where a
// G(n, m) graph near the giant-component threshold (the issue's 1250 vertices,
// 1666 edges) swings both by integer factors from seed to seed and would make
// the workload's timings a function of the seed.
func layeredGraph(name string, attrs [2]string, layers, width, outdeg int, seed int64) *relation.Relation {
	if outdeg > width {
		panic("bench: layeredGraph: outdeg exceeds width")
	}
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(layers * width)
	r := relation.New(name, attrs[0], attrs[1])
	for l := 0; l+1 < layers; l++ {
		from, to := rng.Perm(width), rng.Perm(width)
		for v := 0; v < width; v++ {
			for d := 0; d < outdeg; d++ {
				w := to[(from[v]+d)%width]
				r.Append(int64(ids[l*width+v]), int64(ids[(l+1)*width+w]))
			}
		}
	}
	return r
}

// skewedPair returns the two sides of a skewed two-way join on y with the
// same degree sequence whatever the seed: R(y, x) holds n tuples whose k-th
// most frequent key has degree proportional to (k+1)^-s, S(y, z) holds every
// key of [0, n) exactly once, so the join returns exactly n rows. The seed
// decides which keys are the frequent ones, the payloads and the row order.
// Sampling the keys from a Zipf distribution instead (workload.Zipf) moves
// the head's degrees, and with them the heavy-hitter set, the skew join's
// load and its output size, by integer factors between seeds.
func skewedPair(n int, s float64, seed int64) (r, sRel *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, n)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -s)
		total += weights[k]
	}
	keys := rng.Perm(n)
	rows := make([][2]int64, 0, n)
	for k := 0; k < n && len(rows) < n; k++ {
		deg := int(math.Ceil(float64(n) * weights[k] / total))
		for d := 0; d < deg && len(rows) < n; d++ {
			rows = append(rows, [2]int64{int64(keys[k]), int64(len(rows))})
		}
	}
	rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	r = relation.New("R", "y", "x")
	for _, row := range rows {
		r.Append(row[0], row[1])
	}
	sRel = relation.New("S", "y", "z")
	for _, y := range rng.Perm(n) {
		sRel.Append(int64(y), int64(rng.Intn(n)))
	}
	return r, sRel
}

// closureOracle computes the transitive closure of a binary edge relation by
// a breadth-first search from every vertex: O(V·(V+E)) where
// testkit.OracleFixpoint is O(|closure|·E) per iteration, which the batch
// graph is too large for. The tests check the two agree on a small graph.
func closureOracle(name string, edges *relation.Relation) *relation.Relation {
	adj := map[int64][]int64{}
	for i := 0; i < edges.Len(); i++ {
		row := edges.Row(i)
		adj[row[0]] = append(adj[row[0]], row[1])
	}
	out := relation.New(name, edges.Attrs()...)
	for src := range adj {
		seen := map[int64]bool{}
		queue := append([]int64(nil), adj[src]...)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if seen[v] {
				continue
			}
			seen[v] = true
			out.Append(src, v)
			queue = append(queue, adj[v]...)
		}
	}
	return out
}
