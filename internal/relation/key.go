package relation

// Key encoding and seeded hashing for tuples. All MPC algorithms in this
// repository route tuples by hashing attribute values; the hash must be
// deterministic across runs (for reproducible experiments) yet
// independently re-seedable per attribute (the HyperCube algorithm
// requires k independent hash functions, one per variable).

// EncodeKey packs the selected columns of row into a string usable as a
// map key. The encoding is injective: 8 bytes per value, little endian.
// Because the bytes are little endian (and negative values carry a high
// sign byte), lexicographic order of encoded strings does NOT agree
// with numeric order for any value ≥ 256 or < 0 — encoded keys are
// identity keys only and must never be used as sort keys. EncodeKey is
// for oracles and tests only: it allocates a string per call. The local
// operators hash rows directly (radix.go), and the fixpoints in
// internal/recursive index a fragment's rows by position (their row
// set).
func EncodeKey(row []Value, cols []int) string {
	b := make([]byte, 0, 8*len(cols))
	for _, c := range cols {
		v := uint64(row[c])
		b = append(b,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}

// Hash64 mixes a single value with a seed using an FNV-1a style round
// over the value's eight little-endian bytes, followed by a 64-bit
// finalizer (splitmix64). The finalizer matters: plain FNV on small
// integers leaves low bits highly structured, which skews modulo-p
// partitioning.
//
// The FNV round stops at the value's last non-zero byte. A zero byte's
// step, h ^= 0; h *= prime, is a plain multiply, so the 8 − k steps of
// the high zero bytes of a value with k < 8 significant bytes are one
// multiply by prime^(8−k): the hash is exactly the eight-step round's,
// at about half its cost on values below 2¹⁶, the size keys usually
// are. A value whose top byte is non-zero takes all eight steps.
func Hash64(v Value, seed uint64) uint64 {
	h := uint64(offset64) ^ seed
	k := 0
	for x := uint64(v); x != 0; x >>= 8 {
		h ^= x & 0xff
		h *= prime64
		k++
	}
	if k < 8 { // skips the multiply by 1, and proves the index in range
		h *= zeroBytes[k]
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// The FNV-1a constants of Hash64.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// zeroBytes[k] is prime64^(8−k) mod 2⁶⁴: the FNV steps of the 8 − k high
// zero bytes of a value with k significant bytes.
var zeroBytes = func() (t [9]uint64) {
	t[8] = 1
	for k := 7; k >= 0; k-- {
		t[k] = t[k+1] * prime64
	}
	return t
}()

// HashRow hashes the selected columns of row under one seed.
func HashRow(row []Value, cols []int, seed uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range cols {
		h = Hash64(row[c], h)
	}
	return h
}

// Bucket maps a hash to one of p buckets.
func Bucket(h uint64, p int) int {
	return int(h % uint64(p))
}

// Index is a hash index from a key (a subset of columns) to the row
// indices holding that key. It is the workhorse of local hash joins,
// backed by the radix-partitioned open-addressing kernel in radix.go.
//
// Row ids are int32 (halving index memory); BuildIndex panics on
// relations past math.MaxInt32 rows rather than truncating silently.
type Index struct {
	ri    rowIndex
	arena *kernelArena
}

// BuildIndex indexes rel on the given attributes. The returned Index
// owns its storage for as long as the caller retains it; the pooled
// kernels inside HashJoin/Semijoin recycle their build-side
// arenas instead, so prefer those operators over manual indexing when
// the index is join-transient.
func BuildIndex(rel *Relation, attrs []string) *Index {
	cols := rel.MustCols(attrs)
	ix := &Index{arena: new(kernelArena)}
	buildRowIndex(&ix.ri, rel, cols, ix.arena)
	return ix
}

// Lookup returns the indices of rows whose key columns equal the key
// columns of probe (interpreted under probeCols), in ascending order.
func (ix *Index) Lookup(probe []Value, probeCols []int) []int32 {
	g := ix.ri.lookup(kernelRowHash(probe, probeCols, kernelSeed), probe, probeCols)
	if g < 0 {
		return nil
	}
	return ix.ri.group(ix.ri.ref(g))
}

// LookupKey returns rows matching an explicit key tuple.
func (ix *Index) LookupKey(key []Value) []int32 {
	cols := make([]int, len(key))
	for i := range key {
		cols[i] = i
	}
	return ix.Lookup(key, cols)
}
