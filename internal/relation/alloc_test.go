package relation

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// mallocs returns how many heap allocations f makes, with the collector
// off so that only f's own allocations are counted.
func mallocs(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// refillOverhead is what refilling the emptied arena pool costs beside
// the backings: the arena itself, the pool's per-P array and the pool's
// registration with the collector.
const refillOverhead = 3

// TestArenaRefillCostsOneAllocationPerBacking pins what makes allocation
// counts repeat whatever the collector does: a garbage collection that
// empties the arena pool costs the next kernel calls one allocation per
// typed backing, each sized at once to what the calls before needed,
// and not one per buffer and growth step (the 25 separately grown
// buffers this replaced cost 68 here). One P keeps the sequence on one
// arena; the collector runs only where the test calls it.
func TestArenaRefillCostsOneAllocationPerBacking(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r, s, u := benchTriangle(5000)
	seq := func() {
		HashJoin("J", r, s)
		GroupBy("G", r, []string{"x"}, Sum, "y", "total")
		GenericJoin("T", []string{"x", "y", "z"}, r, s, u)
	}
	seq()
	warm := min(mallocs(seq), mallocs(seq))
	runtime.GC()
	runtime.GC() // the first moves the pool to its victim cache, the second drops it
	cold := mallocs(seq)
	t.Logf("sequence allocations: %d warm, %d after the pool was emptied (%d typed backings)", warm, cold, arenaBackings)
	if cold > warm+arenaBackings+refillOverhead {
		t.Fatalf("refilling the arena pool cost %d allocations, want at most %d typed backings + %d",
			cold-warm, arenaBackings, refillOverhead)
	}
}

// TestSelectAllocatesOutputOnce pins Select's and Semijoin's exact
// output: their storage is allocated once, at its final size, so Cap
// equals Words, and ten thousand input rows cost as many allocations as
// a hundred.
func TestSelectAllocatesOutputOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	even := func(row []Value) bool { return row[0]%2 == 0 }
	allocs := func(n int) (sel, semi float64) {
		r := New("R", "x", "y")
		s := New("S", "y", "z")
		for i := 0; i < n; i++ {
			r.Append(Value(i), Value(i%97))
			s.Append(Value(i%89), Value(i))
		}
		for _, out := range []*Relation{r.Select("O", even), Semijoin("O", r, s), Semijoin("O", r, FromRows("U", []string{"u"}, [][]Value{{1}}))} {
			if out.Cap() != out.Words() {
				t.Fatalf("n=%d: %s holds %d words in storage for %d", n, out, out.Cap(), out.Words())
			}
		}
		sel = testing.AllocsPerRun(10, func() { r.Select("O", even) })
		semi = testing.AllocsPerRun(10, func() { Semijoin("O", r, s) })
		return sel, semi
	}
	sel100, semi100 := allocs(100)
	sel10k, semi10k := allocs(10000)
	t.Logf("allocations: Select %v / %v, Semijoin %v / %v at 100 / 10 000 rows", sel100, sel10k, semi100, semi10k)
	if raceEnabled {
		semi100, semi10k = 0, 0 // Semijoin's arena comes from a pool the race detector drops from
	}
	if sel100 != sel10k || semi100 != semi10k {
		t.Fatalf("allocations depend on the input size: Select %v / %v, Semijoin %v / %v at 100 / 10 000 rows",
			sel100, sel10k, semi100, semi10k)
	}
}

// TestBuildIndexAllocations pins BuildIndex's allocations: the Index,
// its private arena, the key columns, and one take per array the build
// fills (hashes, partition counts, region offsets and masks, slots,
// group starts, grouped rows). Below radixMinRows there is one
// partition, so ten thousand rows cost what a hundred do.
func TestBuildIndexAllocations(t *testing.T) {
	const want = 10
	for _, n := range []int{100, 10000} {
		r := New("R", "x", "y")
		for i := 0; i < n; i++ {
			r.Append(Value(i), Value(i%97))
		}
		got := testing.AllocsPerRun(10, func() { BuildIndex(r, []string{"y"}) })
		t.Logf("BuildIndex over %d rows: %v allocations", n, got)
		if got > want {
			t.Fatalf("BuildIndex over %d rows made %v allocations, want at most %d", n, got, want)
		}
	}
}
