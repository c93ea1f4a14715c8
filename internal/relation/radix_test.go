package relation

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Tests for the radix-partitioned hash kernels: oracle comparisons
// against EncodeKey maps, full-range int64 domains (negative values,
// values straddling 2^32), adversarial hash collisions via the kernel
// hash hooks, and the numeric group-ordering contract.

// fullRangeValue draws from a domain engineered to break byte-wise
// lexicographic orderings and 32-bit truncations: negatives, values
// straddling 2^32, and the int64 extremes, mixed with small ints.
func fullRangeValue(rng *rand.Rand) Value {
	specials := []Value{
		math.MinInt64, math.MinInt64 + 1, -(1 << 40), -(1 << 32), -257, -256, -255, -2, -1,
		0, 1, 2, 255, 256, 257, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 40, math.MaxInt64 - 1, math.MaxInt64,
	}
	switch rng.Intn(3) {
	case 0:
		return specials[rng.Intn(len(specials))]
	case 1:
		return Value(rng.Int63()) - Value(rng.Int63())
	default:
		return Value(rng.Intn(32)) - 16
	}
}

func fullRangeRel(rng *rand.Rand, name string, attrs []string, n int) *Relation {
	r := New(name, attrs...)
	row := make([]Value, len(attrs))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = fullRangeValue(rng)
		}
		r.AppendRow(row)
	}
	return r
}

// mapIndexOracle is the retired EncodeKey → map[string][]int32 index,
// kept as the test oracle the radix kernel is validated against.
func mapIndexOracle(rel *Relation, cols []int) map[string][]int32 {
	m := make(map[string][]int32, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		m[EncodeKey(rel.Row(i), cols)] = append(m[EncodeKey(rel.Row(i), cols)], int32(i))
	}
	return m
}

func sameRows(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(400)
		r := fullRangeRel(rng, "R", []string{"a", "b", "c"}, n)
		attrs := [][]string{{"a"}, {"a", "b"}, {"c", "a"}}[trial%3]
		cols := make([]int, len(attrs))
		for i, a := range attrs {
			cols[i] = r.MustCol(a)
		}
		ix := BuildIndex(r, attrs)
		oracle := mapIndexOracle(r, cols)
		if ix.ri.distinct != len(oracle) {
			t.Fatalf("trial %d: distinct keys = %d, oracle %d", trial, ix.ri.distinct, len(oracle))
		}
		for i := 0; i < n; i++ {
			got := ix.Lookup(r.Row(i), cols)
			want := oracle[EncodeKey(r.Row(i), cols)]
			if !sameRows(got, want) {
				t.Fatalf("trial %d row %d: Lookup = %v, oracle %v", trial, i, got, want)
			}
		}
		// Misses: probe keys unlikely to be present.
		probe := make([]Value, len(cols))
		probeCols := make([]int, len(cols))
		for i := range probeCols {
			probeCols[i] = i
		}
		for tries := 0; tries < 20; tries++ {
			for j := range probe {
				probe[j] = fullRangeValue(rng)
			}
			got := ix.Lookup(probe, probeCols)
			want := oracle[EncodeKey(probe, probeCols)]
			if !sameRows(got, want) {
				t.Fatalf("trial %d probe %v: Lookup = %v, oracle %v", trial, probe, got, want)
			}
		}
	}
}

// TestIndexRadixPartitioned pushes past the single-region threshold so
// the multi-partition scatter path is exercised against the oracle.
func TestIndexRadixPartitioned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := radixMinRows * 3
	r := New("R", "a", "b")
	for i := 0; i < n; i++ {
		r.Append(Value(rng.Intn(n/4))-Value(n/8), Value(rng.Int63())-Value(rng.Int63()))
	}
	cols := []int{0}
	ix := BuildIndex(r, []string{"a"})
	oracle := mapIndexOracle(r, cols)
	if ix.ri.distinct != len(oracle) {
		t.Fatalf("distinct keys = %d, oracle %d", ix.ri.distinct, len(oracle))
	}
	for i := 0; i < n; i += 17 {
		got := ix.Lookup(r.Row(i), cols)
		want := oracle[EncodeKey(r.Row(i), cols)]
		if !sameRows(got, want) {
			t.Fatalf("row %d: Lookup = %v, oracle %v", i, got, want)
		}
	}
}

// TestIndexCollisionVerification swaps the kernel hash for a degenerate
// function so every key collides on the full 64-bit hash; the kernels
// must still answer exactly via their stored-key verification. Not run
// in parallel: it mutates the package-level hash hook.
func TestIndexCollisionVerification(t *testing.T) {
	defer func(rh func([]Value, []int, uint64) uint64) { kernelRowHash = rh }(kernelRowHash)
	// Two-valued hash: massive full-hash collisions across distinct keys.
	kernelRowHash = func(row []Value, cols []int, seed uint64) uint64 {
		return uint64(row[cols[0]]) & 1
	}

	rng := rand.New(rand.NewSource(13))
	r := fullRangeRel(rng, "R", []string{"a", "b"}, 300)
	cols := []int{0, 1}
	ix := BuildIndex(r, []string{"a", "b"})
	oracle := mapIndexOracle(r, cols)
	if ix.ri.distinct != len(oracle) {
		t.Fatalf("distinct keys = %d, oracle %d", ix.ri.distinct, len(oracle))
	}
	for i := 0; i < r.Len(); i++ {
		got := ix.Lookup(r.Row(i), cols)
		want := oracle[EncodeKey(r.Row(i), cols)]
		if !sameRows(got, want) {
			t.Fatalf("row %d: Lookup = %v, oracle %v under colliding hash", i, got, want)
		}
	}
	// The grouping kernels must survive the same abuse.
	s := fullRangeRel(rng, "S", []string{"b", "c"}, 300)
	checkJoinImplsAgree(t, r, s)
	agg := GroupBy("A", r, []string{"a"}, Count, "", "n")
	if agg.Len() != len(mapIndexOracle(r, []int{0})) {
		t.Fatalf("GroupBy under colliding hash: %d groups", agg.Len())
	}
	// So must the join kernel's levels (the path probes R's y and T's z).
	pr, ps, pu := benchPath3(300)
	vars := []string{"x", "y", "z", "w"}
	requireSameBindings(t, "GenericJoin under colliding hash",
		GenericJoin("J", vars, pr, ps, pu), binaryPlanOracle(vars, pr, ps, pu))
	// Semijoin probes the key-only index, in both directions, and
	// Intersect runs through it on every column: each must keep the rows
	// a nested loop keeps, in r's order.
	requireSameRows(t, "Semijoin(R, S) under colliding hash", Semijoin("J", r, s), nestedLoopSemijoin(r, s))
	requireSameRows(t, "Semijoin(S, R) under colliding hash", Semijoin("J", s, r), nestedLoopSemijoin(s, r))
	u := fullRangeRel(rng, "U", []string{"a", "b"}, 300)
	for i := 0; i < r.Len(); i += 3 {
		u.AppendRow(r.Row(i))
	}
	requireSameRows(t, "Intersect under colliding hash", Intersect("J", r, u), nestedLoopSemijoin(r, u))
}

// nestedLoopSemijoin is the reference r ⋉ s: every row of r, in r's
// order, that agrees with some row of s on their shared attributes.
func nestedLoopSemijoin(r, s *Relation) *Relation {
	shared := SharedAttrs(r, s)
	rc, sc := r.MustCols(shared), s.MustCols(shared)
	out := New("J", r.Attrs()...)
	for i := 0; i < r.Len(); i++ {
		ri := r.Row(i)
	probe:
		for j := 0; j < s.Len(); j++ {
			sj := s.Row(j)
			for k := range shared {
				if ri[rc[k]] != sj[sc[k]] {
					continue probe
				}
			}
			out.AppendRow(ri)
			break
		}
	}
	return out
}

// checkJoinImplsAgree asserts HashJoin and NestedLoopJoin produce the
// same bag of tuples on r ⋈ s.
func checkJoinImplsAgree(t *testing.T, r, s *Relation) {
	t.Helper()
	hj := HashJoin("J", r, s)
	nl := NestedLoopJoin("J", r, s)
	for _, pair := range []struct {
		name string
		got  *Relation
	}{{"NestedLoopJoin", nl}} {
		a, b := hj.Clone(), pair.got.Clone()
		a.Sort()
		b.Sort()
		if a.Len() != b.Len() {
			t.Fatalf("HashJoin %d rows, %s %d rows", hj.Len(), pair.name, pair.got.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if !rowsEqual(a.Row(i), b.Row(i)) {
				t.Fatalf("HashJoin and %s disagree at sorted row %d: %v vs %v",
					pair.name, i, a.Row(i), b.Row(i))
			}
		}
	}
}

// TestPropJoinImplsAgreeFullRange cross-validates HashJoin against
// NestedLoopJoin on full-range int64 domains, where any lexicographic
// or 32-bit shortcut in the radix kernel would diverge.
func TestPropJoinImplsAgreeFullRange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		r := fullRangeRel(rng, "R", []string{"x", "y"}, rng.Intn(120))
		s := fullRangeRel(rng, "S", []string{"y", "z"}, rng.Intn(120))
		checkJoinImplsAgree(t, r, s)
	}
}

// naiveGroupBy is the reference GroupBy: collect values per key with a
// map, aggregate, then sort rows numerically by key tuple.
func naiveGroupBy(name string, r *Relation, groupAttrs []string, fn AggFunc, aggAttr, outAttr string) *Relation {
	gcols := make([]int, len(groupAttrs))
	for i, a := range groupAttrs {
		gcols[i] = r.MustCol(a)
	}
	acol := -1
	if fn != Count {
		acol = r.MustCol(aggAttr)
	}
	type grp struct {
		key  []Value
		vals []Value
	}
	groups := map[string]*grp{}
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		k := EncodeKey(row, gcols)
		g := groups[k]
		if g == nil {
			key := make([]Value, len(gcols))
			for j, c := range gcols {
				key[j] = row[c]
			}
			g = &grp{key: key}
			groups[k] = g
		}
		if acol >= 0 {
			g.vals = append(g.vals, row[acol])
		} else {
			g.vals = append(g.vals, 1)
		}
	}
	all := make([]*grp, 0, len(groups))
	for _, g := range groups {
		all = append(all, g)
	}
	sort.Slice(all, func(a, b int) bool {
		for i := range all[a].key {
			if all[a].key[i] != all[b].key[i] {
				return all[a].key[i] < all[b].key[i]
			}
		}
		return false
	})
	out := New(name, append(append([]string(nil), groupAttrs...), outAttr)...)
	for _, g := range all {
		var agg Value
		switch fn {
		case Sum:
			for _, v := range g.vals {
				agg += v
			}
		case Count:
			agg = Value(len(g.vals))
		case Min:
			agg = g.vals[0]
			for _, v := range g.vals {
				if v < agg {
					agg = v
				}
			}
		case Max:
			agg = g.vals[0]
			for _, v := range g.vals {
				if v > agg {
					agg = v
				}
			}
		}
		out.data = append(out.data, g.key...)
		out.data = append(out.data, agg)
	}
	return out
}

// TestGroupByOracle validates GroupBy — rows AND order — against the
// naive reference over full-range domains for every aggregate.
func TestGroupByOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		r := fullRangeRel(rng, "R", []string{"g1", "g2", "v"}, rng.Intn(300))
		for _, fn := range []AggFunc{Sum, Count, Min, Max} {
			got := GroupBy("A", r, []string{"g1", "g2"}, fn, "v", "out")
			want := naiveGroupBy("A", r, []string{"g1", "g2"}, fn, "v", "out")
			if got.Len() != want.Len() {
				t.Fatalf("trial %d fn %d: %d groups, want %d", trial, fn, got.Len(), want.Len())
			}
			for i := 0; i < got.Len(); i++ {
				if !rowsEqual(got.Row(i), want.Row(i)) {
					t.Fatalf("trial %d fn %d row %d: got %v, want %v",
						trial, fn, i, got.Row(i), want.Row(i))
				}
			}
		}
	}
}

// TestGroupBySortedNumeric is the ordering regression test: output must
// be ascending by group key compared numerically. The retired
// implementation sorted by little-endian EncodeKey bytes, which orders
// 256 before 1 and positives before negatives — it fails this test for
// any key ≥ 256 or < 0.
func TestGroupBySortedNumeric(t *testing.T) {
	r := FromRows("R", []string{"g", "v"}, [][]Value{
		{70000, 1}, {-5, 2}, {256, 3}, {2, 4}, {-1 << 40, 5}, {255, 6}, {2, 7}, {-5, 8},
	})
	agg := GroupBy("A", r, []string{"g"}, Sum, "v", "s")
	wantKeys := []Value{-1 << 40, -5, 2, 255, 256, 70000}
	if agg.Len() != len(wantKeys) {
		t.Fatalf("GroupBy returned %d groups, want %d", agg.Len(), len(wantKeys))
	}
	for i, k := range wantKeys {
		if agg.Row(i)[0] != k {
			t.Fatalf("group %d has key %d, want %d (output not in numeric key order: %v)",
				i, agg.Row(i)[0], k, agg)
		}
	}
	// Multi-attribute keys: the second column must break ties numerically.
	r2 := FromRows("R", []string{"a", "b", "v"}, [][]Value{
		{1, 300, 1}, {1, -2, 1}, {1, 4, 1}, {-7, 1000, 1}, {-7, -1000, 1},
	})
	agg2 := GroupBy("A", r2, []string{"a", "b"}, Count, "", "n")
	wantPairs := [][2]Value{{-7, -1000}, {-7, 1000}, {1, -2}, {1, 4}, {1, 300}}
	for i, p := range wantPairs {
		if agg2.Row(i)[0] != p[0] || agg2.Row(i)[1] != p[1] {
			t.Fatalf("group %d = (%d,%d), want (%d,%d)",
				i, agg2.Row(i)[0], agg2.Row(i)[1], p[0], p[1])
		}
	}
}

// TestCheckRowCountPanics pins the int32 row-id guard: relations past
// MaxInt32 rows must fail loudly, not truncate silently.
func TestCheckRowCountPanics(t *testing.T) {
	checkRowCount("BuildIndex", math.MaxInt32) // at the limit: fine
	defer func() {
		if recover() == nil {
			t.Fatal("checkRowCount did not panic past MaxInt32 rows")
		}
	}()
	checkRowCount("BuildIndex", math.MaxInt32+1)
}

// TestHashJoinOutputOrder pins the exact output order contract: probe
// rows in relation order, each key group's build rows ascending — the
// order the map-based implementation produced and the differential
// harnesses snapshot.
func TestHashJoinOutputOrder(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{1, 10}, {2, 20}, {3, 10}})
	s := FromRows("S", []string{"y", "z"}, [][]Value{{10, 7}, {20, 8}, {10, 9}, {10, 7}})
	// r is smaller → build side. Probe s in order; groups ascending.
	got := HashJoin("J", r, s)
	want := [][]Value{
		{1, 10, 7}, {3, 10, 7}, // s row 0 (y=10) matches r rows 0 and 2, ascending
		{2, 20, 8},             // s row 1
		{1, 10, 9}, {3, 10, 9}, // s row 2
		{1, 10, 7}, {3, 10, 7}, // s row 3
	}
	if got.Len() != len(want) {
		t.Fatalf("join has %d rows, want %d: %v", got.Len(), len(want), got)
	}
	for i, w := range want {
		if !rowsEqual(got.Row(i), w) {
			t.Fatalf("row %d = %v, want %v", i, got.Row(i), w)
		}
	}
}
