package workload

import (
	"fmt"
	"math/rand"

	"mpcquery/internal/relation"
)

// Matching returns a "no skew in the extreme" relation (slide 57):
// n tuples where every attribute of tuple i equals i, so every value
// has degree exactly 1 and binary joins never grow intermediates.
func Matching(name string, attrs []string, n int) *relation.Relation {
	r := relation.New(name, attrs...)
	row := make([]relation.Value, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(i)
		}
		r.AppendRow(row)
	}
	return r
}

// Uniform returns n tuples with attributes drawn independently and
// uniformly from [0, domain).
func Uniform(name string, attrs []string, n, domain int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(name, attrs...)
	row := make([]relation.Value, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(rng.Intn(domain))
		}
		r.AppendRow(row)
	}
	return r
}

// UniformDegree returns n tuples over two attributes (key, payload)
// where every key value occurs exactly d times: the "every value of y
// appears exactly d times" model of slide 25. n must be divisible by d.
func UniformDegree(name string, keyAttr, payloadAttr string, n, d int) *relation.Relation {
	if d < 1 || n%d != 0 {
		panic(fmt.Sprintf("workload: UniformDegree n=%d not divisible by d=%d", n, d))
	}
	r := relation.New(name, keyAttr, payloadAttr)
	keys := n / d
	for k := 0; k < keys; k++ {
		for i := 0; i < d; i++ {
			r.Append(relation.Value(k), relation.Value(int64(k)*int64(d)+int64(i)))
		}
	}
	return r
}

// ZipfSampler is a seeded Zipf(s, v=1) sampler over [0, domain): the
// skew source of Zipf and of internal/testkit's generator. Exponents
// ≤ 1 (unsupported by the stdlib) are clamped to 1.01.
type ZipfSampler struct{ z *rand.Zipf }

// NewZipfSampler returns a deterministic sampler; identical arguments
// yield identical streams.
func NewZipfSampler(s float64, domain int, seed int64) *ZipfSampler {
	if domain < 1 {
		panic(fmt.Sprintf("workload: Zipf domain %d < 1", domain))
	}
	if s <= 1 {
		s = 1.01
	}
	rng := rand.New(rand.NewSource(seed))
	return &ZipfSampler{rand.NewZipf(rng, s, 1, uint64(domain-1))}
}

// Next returns the next sample, in [0, domain).
func (zs *ZipfSampler) Next() relation.Value { return relation.Value(zs.z.Uint64()) }

// Zipf returns n tuples whose first attribute is drawn by
// NewZipfSampler(s, domain, seed) and whose remaining attributes are a
// unique payload.
func Zipf(name string, attrs []string, n, domain int, s float64, seed int64) *relation.Relation {
	z := NewZipfSampler(s, domain, seed)
	r := relation.New(name, attrs...)
	row := make([]relation.Value, len(attrs))
	for i := 0; i < n; i++ {
		row[0] = z.Next()
		for j := 1; j < len(row); j++ {
			row[j] = relation.Value(i)
		}
		r.AppendRow(row)
	}
	return r
}

// PlantHeavy returns a two-attribute relation (key, payload) with
// nLight light tuples (distinct keys starting at lightBase) plus, for
// each entry of heavy, heavy[i] tuples sharing key heavyKeys[i].
// Payloads are globally unique.
func PlantHeavy(name, keyAttr, payloadAttr string, nLight int, lightBase int64, heavyKeys []relation.Value, heavy []int) *relation.Relation {
	if len(heavyKeys) != len(heavy) {
		panic("workload: PlantHeavy keys/counts mismatch")
	}
	r := relation.New(name, keyAttr, payloadAttr)
	payload := int64(0)
	for i := 0; i < nLight; i++ {
		r.Append(relation.Value(lightBase+int64(i)), relation.Value(payload))
		payload++
	}
	for i, k := range heavyKeys {
		for j := 0; j < heavy[i]; j++ {
			r.Append(k, relation.Value(payload))
			payload++
		}
	}
	return r
}

// RandomGraph returns m distinct directed edges over n vertices as a
// relation edge(a, b), self-loops excluded.
func RandomGraph(name, fromAttr, toAttr string, n, m int, seed int64) *relation.Relation {
	if int64(m) > int64(n)*int64(n-1) {
		panic(fmt.Sprintf("workload: RandomGraph m=%d too large for n=%d", m, n))
	}
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(name, fromAttr, toAttr)
	seen := map[[2]int64]bool{}
	for len(seen) < m {
		a := int64(rng.Intn(n))
		b := int64(rng.Intn(n))
		if a == b {
			continue
		}
		e := [2]int64{a, b}
		if seen[e] {
			continue
		}
		seen[e] = true
		r.Append(a, b)
	}
	return r
}

// PowerLawGraph returns m distinct directed edges (no self-loops) over
// up to n vertices generated by preferential attachment: each new
// edge's endpoint is, with probability ~degree, an already-popular
// vertex, and a repeated edge is drawn again. The resulting degree
// distribution is heavy-tailed — the realistic source of the skew the
// tutorial's heavy-hitter machinery targets (slide 46).
func PowerLawGraph(name, fromAttr, toAttr string, n, m int, seed int64) *relation.Relation {
	if int64(m) > int64(n)*int64(n-1) {
		panic(fmt.Sprintf("workload: PowerLawGraph m=%d too large for n=%d", m, n))
	}
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(name, fromAttr, toAttr)
	// endpoints holds one entry per edge endpoint so sampling uniformly
	// from it is degree-proportional sampling.
	endpoints := make([]int64, 0, 2*m)
	next := int64(0)
	newVertex := func() int64 {
		v := next
		if next < int64(n-1) {
			next++
		}
		return v
	}
	pick := func() int64 {
		if len(endpoints) == 0 || rng.Float64() < 0.2 {
			return newVertex()
		}
		return endpoints[rng.Intn(len(endpoints))]
	}
	seen := make(map[[2]int64]bool, m)
	for len(endpoints)/2 < m {
		a, b := pick(), pick()
		if a == b || seen[[2]int64{a, b}] {
			continue
		}
		seen[[2]int64{a, b}] = true
		r.Append(a, b)
		endpoints = append(endpoints, a, b)
	}
	return r
}

// TriangleInput returns the three relations R(x,y), S(y,z), T(z,x) of
// the triangle query, all equal to one random edge set, so triangles in
// the graph become query answers.
func TriangleInput(n, m int, seed int64) (r, s, t *relation.Relation) {
	edges := RandomGraph("edges", "a", "b", n, m, seed)
	r = relation.New("R", "x", "y")
	s = relation.New("S", "y", "z")
	t = relation.New("T", "z", "x")
	for i := 0; i < edges.Len(); i++ {
		row := edges.Row(i)
		r.Append(row[0], row[1])
		s.Append(row[0], row[1])
		// T(z,x): edge (a,b) means z=a, x=b.
		t.Append(row[0], row[1])
	}
	return r, s, t
}

// TriangleWithPlantedTriangles returns triangle-query inputs over a
// sparse random graph plus k planted triangles, guaranteeing a known
// minimum output size.
func TriangleWithPlantedTriangles(n, m, k int, seed int64) (r, s, t *relation.Relation) {
	r, s, t = TriangleInput(n, m, seed)
	base := int64(n) // planted vertex ids beyond the random range
	for i := 0; i < k; i++ {
		a, b, c := base+3*int64(i), base+3*int64(i)+1, base+3*int64(i)+2
		r.Append(a, b)
		s.Append(b, c)
		t.Append(c, a)
	}
	return r, s, t
}

// PathInput returns n binary relations R1(A0,A1)...Rn(A[n-1],An) for
// the path query, each a matching of size size: Ri = {(v, v) : v}.
// Joining them yields exactly size output tuples and intermediate
// results never grow (the slide-57 "extreme no skew" regime).
func PathInput(n, size int) []*relation.Relation {
	rels := make([]*relation.Relation, n)
	for i := 0; i < n; i++ {
		rels[i] = Matching(
			fmt.Sprintf("R%d", i+1),
			[]string{fmt.Sprintf("A%d", i), fmt.Sprintf("A%d", i+1)},
			size)
	}
	return rels
}

// SlideTreeInput generates data for the 5-atom acyclic query of the
// Yannakakis walkthrough (slides 64–77), sized so that semijoins
// meaningfully reduce the inputs: each relation is a set of size
// tuples (a tuple drawn twice is drawn again) with keys drawn from
// overlapping but not identical ranges.
func SlideTreeInput(size int, seed int64) map[string]*relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	dom := size // key domain; ~63% coverage ensures partial matches
	gen := func(name, a1, a2 string) *relation.Relation {
		r := relation.New(name, a1, a2)
		var set relation.RowSet
		row := make([]relation.Value, 2)
		for r.Len() < size {
			row[0], row[1] = relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom))
			set.Add(r, row)
		}
		return r
	}
	return map[string]*relation.Relation{
		"R1": gen("R1", "A0", "A1"),
		"R2": gen("R2", "A0", "A2"),
		"R3": gen("R3", "A1", "A3"),
		"R4": gen("R4", "A2", "A4"),
		"R5": gen("R5", "A2", "A5"),
	}
}
