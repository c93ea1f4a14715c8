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

// TestSurvivorsPrunedByErrorBound pins what lets Heavy skip its
// recount: a summary keeps only the values that its error bound lets
// reach the threshold. On a uniform stream, where no value comes near
// it, every counter is pruned; a value planted at the threshold
// survives, alone.
func TestSurvivorsPrunedByErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]relation.Value, 30000)
	for i := range vals {
		vals[i] = relation.Value(rng.Intn(4000))
	}
	const threshold = 30000 / 8
	uniform := []Column{column("R", 2, 0, vals, 0)}
	if got := survivors(uniform, len(vals)/threshold, threshold, nil); len(got) != 0 {
		t.Fatalf("uniform stream: %d survivors %v, want none", len(got), got)
	}
	planted := append(repeat([]relation.Value{-5}, threshold), vals...)
	rng.Shuffle(len(planted), func(i, j int) { planted[i], planted[j] = planted[j], planted[i] })
	cols := []Column{column("R", 2, 0, planted, 0)}
	if got := survivors(cols, len(planted)/threshold, threshold, nil); !slices.Equal(got, []relation.Value{-5}) {
		t.Fatalf("planted stream: survivors %v, want [-5]", got)
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

// BenchmarkHeavy times both sides of a two-way join's heavy-hitter count
// at p = 8 on a Zipf(1.5) column against a permutation, 40 000 rows each
// (the benchmark's zipf_join), next to the per-value map count of
// heavyOracle; and, as summed-uniform, one variable of a triangle over
// 15 000 uniform edges on 4 000 vertices at p = 8 (the benchmark's
// hc_triangle), which has no heavy value.
func BenchmarkHeavy(b *testing.B) {
	const n = 40000
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.5, 1, n-1)
	r, s := relation.New("R", "y", "x"), relation.New("S", "y", "z")
	for i, y := range rng.Perm(n) {
		r.Append(relation.Value(zipf.Uint64()), relation.Value(i))
		s.Append(relation.Value(y), relation.Value(i))
	}
	cols := []Column{{Rel: r, Col: 0}, {Rel: s, Col: 0}}
	b.Run("misra-gries", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Heavy(cols, 2*n/8, InAny)
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heavyOracle(cols, 2*n/8, InAny)
		}
	})
	const nodes, edges = 4000, 15000
	er, et := relation.New("R", "x", "y"), relation.New("T", "z", "x")
	for i := 0; i < edges; i++ {
		er.Append(rng.Int63n(nodes), rng.Int63n(nodes))
		et.Append(rng.Int63n(nodes), rng.Int63n(nodes))
	}
	x := []Column{{Rel: er, Col: 0}, {Rel: et, Col: 1}}
	b.Run("summed-uniform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Heavy(x, edges/8, Summed) != nil {
				b.Fatal("a uniform column has a heavy value")
			}
		}
	})
}
