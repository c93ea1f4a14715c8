package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpcquery/internal/relation"
)

// heavyOracle is Heavy by per-column maps: the definition, with no
// sketch in the way.
func heavyOracle(cols []Column, threshold int, rule Rule) []Hitter {
	t := max(threshold, 1)
	deg := map[relation.Value][]int{}
	for ci, c := range cols {
		for i := 0; i < c.Rel.Len(); i++ {
			v := c.Rel.Row(i)[c.Col]
			if deg[v] == nil {
				deg[v] = make([]int, len(cols))
			}
			deg[v][ci]++
		}
	}
	var out []Hitter
	for v, d := range deg {
		sum := 0
		heavy := false
		for _, n := range d {
			sum += n
			heavy = heavy || (rule == InAny && n >= t)
		}
		if heavy || (rule == Summed && sum >= t) {
			out = append(out, Hitter{Value: v, Deg: d})
		}
	}
	slices.SortFunc(out, func(a, b Hitter) int {
		switch {
		case a.Value < b.Value:
			return -1
		case a.Value > b.Value:
			return 1
		}
		return 0
	})
	return out
}

func sameHitters(a, b []Hitter) bool {
	return slices.EqualFunc(a, b, func(x, y Hitter) bool {
		return x.Value == y.Value && slices.Equal(x.Deg, y.Deg)
	})
}

// checkHeavy compares Heavy with the oracle under both rules and every
// threshold from 1 to one past the longest stream.
func checkHeavy(t *testing.T, name string, cols []Column) {
	t.Helper()
	n := 0
	for _, c := range cols {
		n += c.Rel.Len()
	}
	for _, rule := range []Rule{InAny, Summed} {
		for th := 1; th <= n+1; th++ {
			got, want := Heavy(cols, th, rule), heavyOracle(cols, th, rule)
			if !sameHitters(got, want) {
				t.Fatalf("%s, rule %d, threshold %d:\n got %v\nwant %v", name, rule, th, got, want)
			}
		}
	}
}

func repeat(vals []relation.Value, n int) []relation.Value {
	var out []relation.Value
	for i := 0; i < n; i++ {
		out = append(out, vals...)
	}
	return out
}

func column(name string, arity, col int, vals []relation.Value, fill relation.Value) Column {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	r := relation.New(name, attrs...)
	row := make([]relation.Value, arity)
	for _, v := range vals {
		for i := range row {
			row[i] = fill
		}
		row[col] = v
		r.AppendRow(row)
	}
	return Column{Rel: r, Col: col}
}

// TestHeavyTwoWay is slide 29's rule on a tiny pair: at threshold 2 the
// value 1 is heavy in R and 2 in S, and each comes back with its degree
// on both sides.
func TestHeavyTwoWay(t *testing.T) {
	r := column("R", 2, 1, []relation.Value{1, 1, 2}, 0)
	s := column("S", 2, 0, []relation.Value{2, 2, 3}, 0)
	got := Heavy([]Column{r, s}, 2, InAny)
	want := []Hitter{{1, []int{2, 0}}, {2, []int{1, 2}}}
	if !sameHitters(got, want) {
		t.Fatalf("Heavy = %v, want %v", got, want)
	}
}

// TestHeavySummed is SkewHC's rule: 2 reaches 4 only summed over both
// columns; 1 and 5 do not.
func TestHeavySummed(t *testing.T) {
	a := column("A", 1, 0, []relation.Value{1, 1, 2}, 0)
	b := column("B", 1, 0, []relation.Value{2, 2, 2, 5}, 0)
	if got, want := Heavy([]Column{a, b}, 4, Summed), []Hitter{{2, []int{1, 3}}}; !sameHitters(got, want) {
		t.Fatalf("Heavy = %v, want %v", got, want)
	}
	if got := Heavy([]Column{a, b}, 4, InAny); len(got) != 0 {
		t.Fatalf("no single column holds 4 copies, got %v", got)
	}
}

// TestHeavyMatchesOracle is the property test: random streams, the edge
// cases the sketch could get wrong, both rules, every threshold.
func TestHeavyMatchesOracle(t *testing.T) {
	extremes := []relation.Value{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1}
	checkHeavy(t, "no columns", nil)
	checkHeavy(t, "empty", []Column{column("E", 2, 1, nil, 0), column("F", 1, 0, nil, 0)})
	checkHeavy(t, "all equal", []Column{column("R", 3, 2, repeat([]relation.Value{-7}, 40), 9)})
	checkHeavy(t, "extremes", []Column{
		column("R", 2, 0, repeat(extremes, 5), 3),
		column("S", 2, 1, extremes[:3], math.MaxInt64),
	})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		var cols []Column
		for c := 0; c < 1+rng.Intn(3); c++ {
			vals := make([]relation.Value, rng.Intn(60))
			domain := 1 + rng.Intn(12)
			for i := range vals {
				switch rng.Intn(4) {
				case 0:
					vals[i] = extremes[rng.Intn(len(extremes))]
				case 1:
					vals[i] = rng.Int63() - rng.Int63()
				default: // a small domain, so values repeat
					vals[i] = relation.Value(rng.Intn(domain) - domain/2)
				}
			}
			arity := 1 + rng.Intn(3)
			cols = append(cols, column(fmt.Sprintf("R%d", c), arity, rng.Intn(arity), vals, rng.Int63()))
		}
		checkHeavy(t, fmt.Sprintf("trial %d", trial), cols)
	}
}

// sameBucket returns count values other than v, and other than those in
// skip, that hash to v's bucket out of 1<<bits.
func sameBucket(v relation.Value, bits uint, count int, skip ...relation.Value) []relation.Value {
	var out []relation.Value
	for u := v + 1; len(out) < count; u++ {
		if hash(u)>>(64-bits) == hash(v)>>(64-bits) && !slices.Contains(skip, u) {
			out = append(out, u)
		}
	}
	return out
}

// TestHeavyExactUnderCollisions: pass 2 counts every value of a hot
// bucket exactly, so light values that share a heavy value's bucket stay
// out, one of them at t − 1; a bucket that reaches t through light
// values alone yields nothing; and a value at exactly t is heavy.
func TestHeavyExactUnderCollisions(t *testing.T) {
	const th = 50
	heavy := relation.Value(7)
	// The stream's length fixes the bucket count: 50 + 49 + 3 + 2·30
	// colliding occurrences plus 500 distinct fillers.
	const m = th + (th - 1) + 3 + 2*30 + 500
	bits := bucketBits(m, th)
	near := sameBucket(heavy, bits, 2)           // t − 1 and 3 occurrences
	lights := sameBucket(1000, bits, 2, near...) // 30 each in a bucket of their own
	if hash(lights[0])>>(64-bits) == hash(heavy)>>(64-bits) {
		t.Fatal("the light pair shares the heavy value's bucket")
	}
	vals := repeat([]relation.Value{heavy}, th)
	vals = append(vals, repeat(near[:1], th-1)...)
	vals = append(vals, repeat(near[1:], 3)...)
	vals = append(vals, repeat(lights, 30)...)
	for i := 0; i < 500; i++ {
		vals = append(vals, relation.Value(1_000_000+i))
	}
	if len(vals) != m {
		t.Fatalf("stream has %d values, want %d", len(vals), m)
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	one := []Column{column("R", 2, 1, vals, 0)}
	for _, rule := range []Rule{InAny, Summed} {
		if got, want := Heavy(one, th, rule), []Hitter{{heavy, []int{th}}}; !sameHitters(got, want) {
			t.Errorf("rule %d: Heavy = %v, want %v", rule, got, want)
		}
	}
	// Split in two columns, the value at t − 1 stays light summed too,
	// and every threshold matches the oracle.
	half := []Column{column("R", 2, 1, vals[:m/2], 0), column("S", 1, 0, vals[m/2:], 0)}
	if got, want := Heavy(half, th, Summed), heavyOracle(half, th, Summed); !sameHitters(got, want) || len(got) != 1 {
		t.Errorf("two columns, summed: Heavy = %v, want %v", got, want)
	}
	checkHeavy(t, "collisions", one)
	checkHeavy(t, "collisions in two columns", half)
}

// TestHeavyNilAfterPassOne: on a skew-free stream no bucket reaches the
// threshold, so Heavy returns nil having made one allocation, its bucket
// array, and no exact count; a value planted at the threshold is found,
// alone, with its degree.
func TestHeavyNilAfterPassOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]relation.Value, 30000)
	for i := range vals {
		vals[i] = relation.Value(rng.Intn(4000))
	}
	const threshold = 30000 / 8
	uniform := []Column{column("R", 2, 0, vals, 0)}
	var got []Hitter
	if allocs := testing.AllocsPerRun(10, func() { got = Heavy(uniform, threshold, InAny) }); got != nil || allocs != 1 {
		t.Fatalf("uniform stream: Heavy = %v in %.0f allocations, want nil in 1", got, allocs)
	}
	planted := append(repeat([]relation.Value{-5}, threshold), vals...)
	rng.Shuffle(len(planted), func(i, j int) { planted[i], planted[j] = planted[j], planted[i] })
	cols := []Column{column("R", 2, 0, planted, 0)}
	if got, want := Heavy(cols, threshold, InAny), heavyOracle(cols, threshold, InAny); !sameHitters(got, want) || len(got) != 1 || got[0].Value != -5 {
		t.Fatalf("planted stream: Heavy = %v, want %v, only -5", got, want)
	}
}

// TestHeavyAllocations holds each BenchmarkHeavy shape to the
// allocations per call Heavy made before its bucket prefilter: the
// bucket array and, when a bucket is hot, an exact count sized up front.
func TestHeavyAllocations(t *testing.T) {
	for _, sh := range heavyShapes() {
		if allocs := testing.AllocsPerRun(20, func() { Heavy(sh.cols, sh.threshold, sh.rule) }); allocs > sh.maxAllocs {
			t.Errorf("%s: %.0f allocations per call, want at most %.0f", sh.name, allocs, sh.maxAllocs)
		}
	}
}

func TestHeavyRejectsBadColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a column past the arity was accepted")
		}
	}()
	Heavy([]Column{{Rel: relation.New("R", "a"), Col: 1}}, 1, InAny)
}

// FuzzHeavy checks Heavy against the map oracle on fuzzed streams: the
// first byte picks the rule and the threshold, and each following group
// of 9 bytes is a column switch and one 8-byte value, so the fuzzer
// steers both the split into columns and how often values repeat.
func FuzzHeavy(f *testing.F) {
	f.Add([]byte{0x03, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x81, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	// Threshold 3 on one column: a heavy value at 3 and one that shares
	// its bucket at 2.
	seed := []byte{3}
	near := sameBucket(-9, bucketBits(5, 3), 1)[0]
	for _, v := range []relation.Value{-9, near, -9, near, -9} {
		seed = binary.LittleEndian.AppendUint64(append(seed, 0), uint64(v))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rule := Rule(data[0] >> 7)
		threshold := int(data[0] & 0x7f)
		cols := []Column{column("C0", 1, 0, nil, 0)}
		for data = data[1:]; len(data) >= 9; data = data[9:] {
			if data[0]&1 == 1 && len(cols) < 4 {
				cols = append(cols, column(fmt.Sprintf("C%d", len(cols)), 1, 0, nil, 0))
			}
			cols[len(cols)-1].Rel.Append(relation.Value(binary.LittleEndian.Uint64(data[1:9])))
		}
		if got, want := Heavy(cols, threshold, rule), heavyOracle(cols, threshold, rule); !sameHitters(got, want) {
			t.Fatalf("rule %d, threshold %d:\n got %v\nwant %v", rule, threshold, got, want)
		}
	})
}

// heavyShape is one heavy-hitter count the engine makes per request.
type heavyShape struct {
	name      string
	cols      []Column
	threshold int
	rule      Rule
	maxAllocs float64 // Heavy's allocations per call before the bucket prefilter
}

// heavyShapes are BenchmarkHeavy's counts, at p = 8:
//   - twoway-zipf: both sides of the benchmark's zipf_join, a Zipf(1.5)
//     column against a permutation, 40 000 rows each, under the
//     two-way rule (one heavy value);
//   - summed-uniform: one variable of the benchmark's hc_triangle, over
//     15 000 uniform edges on 4 000 vertices in each of two atoms;
//   - inany-uniform: both sides of the benchmark's agg_join, two uniform
//     40 000-row columns, under the two-way rule.
//
// The last two have no heavy value.
func heavyShapes() []heavyShape {
	const n = 40000
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.5, 1, n-1)
	r, s := relation.New("R", "y", "x"), relation.New("S", "y", "z")
	for i, y := range rng.Perm(n) {
		r.Append(relation.Value(zipf.Uint64()), relation.Value(i))
		s.Append(relation.Value(y), relation.Value(i))
	}
	const nodes, edges = 4000, 15000
	er, et := relation.New("R", "x", "y"), relation.New("T", "z", "x")
	for i := 0; i < edges; i++ {
		er.Append(rng.Int63n(nodes), rng.Int63n(nodes))
		et.Append(rng.Int63n(nodes), rng.Int63n(nodes))
	}
	ur, us := relation.New("R", "x", "y"), relation.New("S", "y", "z")
	for i := 0; i < n; i++ {
		ur.Append(relation.Value(i), rng.Int63n(n))
		us.Append(rng.Int63n(n), relation.Value(i))
	}
	return []heavyShape{
		{"twoway-zipf", []Column{{Rel: r, Col: 0}, {Rel: s, Col: 0}}, 2 * n / 8, InAny, 12},
		{"summed-uniform", []Column{{Rel: er, Col: 0}, {Rel: et, Col: 1}}, edges / 8, Summed, 3},
		{"inany-uniform", []Column{{Rel: ur, Col: 1}, {Rel: us, Col: 0}}, 2 * n / 8, InAny, 6},
	}
}

// BenchmarkHeavy times heavyShapes, and next to twoway-zipf the
// per-value map count of heavyOracle.
func BenchmarkHeavy(b *testing.B) {
	for _, sh := range heavyShapes() {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Heavy(sh.cols, sh.threshold, sh.rule)
			}
		})
		if sh.name == "twoway-zipf" {
			b.Run("map", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					heavyOracle(sh.cols, sh.threshold, sh.rule)
				}
			})
		}
	}
}
