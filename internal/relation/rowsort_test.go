package relation

import (
	"math/rand"
	"sort"
	"testing"
)

// sliceStableSortBy is the retired SortBy — sort.SliceStable over row
// ids with the key-then-full-row comparator — kept as the oracle the
// radix row sort is validated against.
func sliceStableSortBy(r *Relation, attrs ...string) {
	cols := r.MustCols(attrs)
	k := len(r.attrs)
	idx := make([]int, r.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := r.Row(idx[a]), r.Row(idx[b])
		for _, c := range cols {
			if ra[c] != rb[c] {
				return ra[c] < rb[c]
			}
		}
		for c := 0; c < k; c++ {
			if ra[c] != rb[c] {
				return ra[c] < rb[c]
			}
		}
		return false
	})
	sorted := make([]Value, 0, len(r.data))
	for _, i := range idx {
		sorted = append(sorted, r.Row(i)...)
	}
	r.data = sorted
}

// TestSortByMatchesSliceStable runs the row sort against the retired
// comparison sort on every side of its cutoffs: row counts around
// sortSmallRows, arities 1-4, partial and permuted keys, and values
// from a byte wide (most radix passes skipped) to the full signed
// range (none skipped, sign byte biased).
func TestSortByMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	attrs := []string{"a", "b", "c", "d"}
	keys := [][]string{{}, {"a"}, {"b", "a"}, {"c"}, {"d", "b"}}
	sizes := []int{0, 1, 2, sortSmallRows - 1, sortSmallRows, sortSmallRows + 1, 100, 3000}
	for trial := 0; trial < 120; trial++ {
		k := 1 + trial%4
		n := sizes[rng.Intn(len(sizes))]
		var r *Relation
		switch trial % 3 {
		case 0:
			r = fullRangeRel(rng, "R", attrs[:k], n)
		case 1:
			r = randRel(rng, "R", attrs[:k], n, 7)
		default:
			r = randRel(rng, "R", attrs[:k], n, 70000)
		}
		var key []string
		for _, a := range keys[rng.Intn(len(keys))] {
			if r.Col(a) >= 0 {
				key = append(key, a)
			}
		}
		want := r.Clone()
		sliceStableSortBy(want, key...)
		before := r.Clone()
		// A relabelled view sorted or deduplicated must leave the
		// relation it shares storage with as it was.
		view := r.Rename("view", []string{"p", "q", "r", "s"}[:k]...)
		view.SortBy(view.Attrs()[len(view.Attrs())-1])
		view.Dedup()
		requireSameRows(t, "original of a sorted and deduplicated view", r, before)
		alias := r.Rename("alias")
		r.SortBy(key...)
		requireSameRows(t, "SortBy", r, want)
		requireSameRows(t, "relation sharing the sorted one's storage", alias, before)
	}
}

func BenchmarkSortBy(b *testing.B) {
	// The benchmark's two HyperCube fragment sizes, values below 2^16.
	for _, size := range []struct {
		name string
		n    int
	}{{"n2k", 2000}, {"n7500", 7500}} {
		r := benchRel(5, "R", []string{"x", "y"}, size.n, 3000)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := r.Rename("C")
				c.SortBy("y")
			}
		})
	}
}

func BenchmarkDedup(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"n3k", 3000}, {"n40k", 40000}} {
		r := benchRel(6, "R", []string{"x", "y"}, size.n, size.n/8)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := r.Rename("C")
				c.Dedup()
			}
		})
	}
}
