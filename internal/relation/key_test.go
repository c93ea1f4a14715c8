package relation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeKeyInjective(t *testing.T) {
	f := func(a, b int64, c, d int64) bool {
		ka := EncodeKey([]Value{a, b}, []int{0, 1})
		kb := EncodeKey([]Value{c, d}, []int{0, 1})
		if a == c && b == d {
			return ka == kb
		}
		return ka != kb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHash64Deterministic(t *testing.T) {
	f := func(v int64, seed uint64) bool {
		return Hash64(v, seed) == Hash64(v, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// hash64ByteLoop is Hash64 as first written, the oracle of its
// zero-byte shortcut: an FNV-1a step for each of the value's eight
// little-endian bytes, zero or not, then the splitmix64 finalizer.
func hash64ByteLoop(v Value, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	x := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime
		x >>= 8
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// TestHash64MatchesByteLoop pins Hash64 to the eight-step byte loop:
// every owner, grid cell and HashSeed in the system is a function of
// it. The values cover each byte length's edges and the signs; the
// random ones draw their bit length uniformly, so short values, the
// shortcut's case, are as common as long ones.
func TestHash64MatchesByteLoop(t *testing.T) {
	vals := []Value{0, 1, -1, 255, 256, 1 << 16, 1<<56 - 1, 1 << 56, math.MaxInt64, math.MinInt64}
	for b := 1; b < 64; b++ {
		vals = append(vals, 1<<b-1, 1<<b, -(1 << b))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1e6; i++ {
		v := Value(rng.Uint64() >> rng.Intn(64))
		if rng.Intn(4) == 0 {
			v = -v
		}
		vals = append(vals, v)
	}
	for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15, ^uint64(0), rng.Uint64()} {
		for _, v := range vals {
			if got, want := Hash64(v, seed), hash64ByteLoop(v, seed); got != want {
				t.Fatalf("Hash64(%d, %#x) = %#x, byte loop %#x", v, seed, got, want)
			}
		}
	}
}

// FuzzHash64MatchesByteLoop is TestHash64MatchesByteLoop on fuzzed
// values and seeds.
func FuzzHash64MatchesByteLoop(f *testing.F) {
	f.Add(int64(0), uint64(0))
	f.Add(int64(255), uint64(1))
	f.Add(int64(1<<56), ^uint64(0))
	f.Add(int64(math.MinInt64), uint64(0x9e3779b97f4a7c15))
	f.Fuzz(func(t *testing.T, v int64, seed uint64) {
		if got, want := Hash64(v, seed), hash64ByteLoop(v, seed); got != want {
			t.Fatalf("Hash64(%d, %#x) = %#x, byte loop %#x", v, seed, got, want)
		}
	})
}

func TestHash64SeedIndependence(t *testing.T) {
	// Different seeds should produce different bucketings for most
	// values; check the two hash streams are not identical.
	same := 0
	for v := Value(0); v < 1000; v++ {
		if Bucket(Hash64(v, 1), 16) == Bucket(Hash64(v, 2), 16) {
			same++
		}
	}
	// Expect ~1/16 collisions on buckets; flag if > 1/4 agree.
	if same > 250 {
		t.Fatalf("seeds 1 and 2 agree on %d/1000 buckets; hashes not independent", same)
	}
}

func TestBucketBalance(t *testing.T) {
	// Sequential integers must spread near-uniformly over p buckets:
	// this is exactly the property parallel hash join relies on.
	const n, p = 100000, 64
	counts := make([]int, p)
	for v := Value(0); v < n; v++ {
		counts[Bucket(Hash64(v, 99), p)]++
	}
	mean := n / p
	for b, c := range counts {
		if c < mean*7/10 || c > mean*13/10 {
			t.Fatalf("bucket %d has %d of %d values (mean %d); hash too skewed", b, c, n, mean)
		}
	}
}

func TestHashRowMultiColumn(t *testing.T) {
	r1 := []Value{1, 2}
	r2 := []Value{2, 1}
	if HashRow(r1, []int{0, 1}, 7) == HashRow(r2, []int{0, 1}, 7) {
		t.Fatalf("hash should distinguish column order of values")
	}
	if HashRow(r1, []int{0}, 7) != HashRow(r2, []int{1}, 7) {
		t.Fatalf("hash of equal projected values must agree")
	}
}

func TestIndexLookup(t *testing.T) {
	r := FromRows("R", []string{"x", "y"}, [][]Value{{1, 10}, {2, 20}, {1, 30}})
	ix := BuildIndex(r, []string{"x"})
	if got := ix.LookupKey([]Value{1}); len(got) != 2 {
		t.Fatalf("lookup x=1 returned %d rows, want 2", len(got))
	}
	if got := ix.LookupKey([]Value{9}); len(got) != 0 {
		t.Fatalf("lookup x=9 returned %d rows, want 0", len(got))
	}
	if ix.ri.distinct != 2 {
		t.Fatalf("distinct keys = %d, want 2", ix.ri.distinct)
	}
	// Probe with a differently-shaped row.
	probe := []Value{99, 1}
	if got := ix.Lookup(probe, []int{1}); len(got) != 2 {
		t.Fatalf("probe lookup returned %d rows, want 2", len(got))
	}
}

func TestGroupBySum(t *testing.T) {
	r := FromRows("R", []string{"g", "v"}, [][]Value{{1, 10}, {2, 5}, {1, 7}, {2, 5}})
	out := GroupBy("G", r, []string{"g"}, Sum, "v", "total")
	want := FromRows("W", []string{"g", "total"}, [][]Value{{1, 17}, {2, 10}})
	if !out.EqualAsSets(want) {
		t.Fatalf("group-by sum = %v, want %v", out, want)
	}
}

func TestGroupByCountMinMax(t *testing.T) {
	r := FromRows("R", []string{"g", "v"}, [][]Value{{1, 10}, {1, 3}, {2, 8}})
	cnt := GroupBy("C", r, []string{"g"}, Count, "", "n")
	if !cnt.EqualAsSets(FromRows("W", []string{"g", "n"}, [][]Value{{1, 2}, {2, 1}})) {
		t.Fatalf("count wrong: %v", cnt)
	}
	mn := GroupBy("M", r, []string{"g"}, Min, "v", "m")
	if !mn.EqualAsSets(FromRows("W", []string{"g", "m"}, [][]Value{{1, 3}, {2, 8}})) {
		t.Fatalf("min wrong: %v", mn)
	}
	mx := GroupBy("M", r, []string{"g"}, Max, "v", "m")
	if !mx.EqualAsSets(FromRows("W", []string{"g", "m"}, [][]Value{{1, 10}, {2, 8}})) {
		t.Fatalf("max wrong: %v", mx)
	}
}
