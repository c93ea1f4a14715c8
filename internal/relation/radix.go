package relation

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Radix-partitioned open-addressing hash kernels. The local operators
// that match rows by key (BuildIndex/HashJoin, Semijoin, GroupBy) run
// on these: rows are hashed once, by kernelRowHash, partitioned by the
// high hash bits so each partition's table region stays cache-resident,
// and inserted into an open-addressing region addressed by the low hash
// bits. A slot matches only when both the full 64-bit hash and the
// actual key columns compare equal, so hash collisions are verified
// against the stored rows and never merge distinct keys.
//
// The two-input index (rowIndex) numbers each new key's group as it is
// inserted. Its key-only form (Semijoin) stops there: a slot holds its
// key's first row for the collision check. Its grouped form (HashJoin,
// BuildIndex) then lays every group's row ids out contiguous and
// ascending with one prefix sum over the groups and one counting
// scatter, so a build passes over the rows and the groups, never over
// the empty slots.
//
// Build-side scratch (hash arrays, partition counters, slot regions,
// group starts, grouped row ids) lives in a kernelArena recycled
// through a sync.Pool, so steady-state rounds of an MPC run reuse the
// same allocations instead of rebuilding map buckets every round.

// kernelSeed is the fixed seed the local-operator kernels hash under.
// It is independent of the per-round routing seeds, so table layout
// never correlates with how tuples were partitioned across servers.
const kernelSeed uint64 = 0x8c5d1b6f0f3a9e21

// kernelRowHash is the hash hook for the kernels. Tests override it
// with a deliberately weak function to force full 64-bit hash
// collisions and exercise the key-verification path.
var kernelRowHash = fastRowHash

// fastRowHash combines the selected columns with a multiply-fold per
// value and a final splitmix64 finisher.
func fastRowHash(row []Value, cols []int, seed uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range cols {
		x := uint64(row[c])
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		h = (h ^ x) * 0xc4ceb9fe1a85ec53
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return h
}

const (
	// radixMinRows is the build size below which a single table region
	// is used: the whole table fits in cache, so partitioning would
	// only add a scatter pass.
	radixMinRows = 1 << 14
	// radixTargetRows is the aimed-for number of build rows per
	// partition; each partition's slot region (2 slots/row, 16 B/slot)
	// then stays within the L2 working set.
	radixTargetRows = 1 << 12
	// radixMaxParts bounds the partition fan-out.
	radixMaxParts = 1 << 9
)

// checkRowCount guards the int32 row ids used throughout the kernels.
// Row ids are int32 to halve index memory; past MaxInt32 rows the ids
// would silently truncate, so fail loudly instead.
func checkRowCount(op string, n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("relation: %s over %d rows exceeds the int32 row-id limit (%d)",
			op, n, math.MaxInt32))
	}
}

// radixParts picks a power-of-two partition count for n build rows.
func radixParts(n int) int {
	if n < radixMinRows {
		return 1
	}
	p := nextPow2(n / radixTargetRows)
	if p > radixMaxParts {
		p = radixMaxParts
	}
	return p
}

func nextPow2(n int) int {
	if n < 2 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// kernelArena holds the scratch of one kernel invocation, in one
// bump-allocated backing per element type: a call takes consecutive
// slices off each backing and putArena rewinds them all, so the next
// call reuses the same memory. A take that does not fit replaces the
// backing with one at least twice its size and large enough for all the
// call has taken; the slices already handed out stay valid. One arena
// is checked out of a pool per operator call and returned when the
// operator's output has been emitted. An Index returned to a caller
// (BuildIndex) owns a private arena that is simply dropped with the
// Index, never repooled.
//
// The pool drops arenas at garbage collection. A fresh pooled arena
// sizes each backing to the largest total a recent call took of that
// type (arenaHints), so refilling the pool costs one allocation per
// typed backing, not one per buffer and growth step: allocation counts
// then hardly depend on when the collector runs.
type kernelArena struct {
	u64    bump[uint64]    // key hashes, partition masks
	i32    bump[int32]     // row ids, group starts, partition counters
	vals   bump[Value]     // group keys and aggregates, sort buffers, the join's binding
	ints   bump[int]       // region offsets, the join's plan
	refs   bump[groupRef]  // HashJoin's probe matches
	slots  bump[idxSlot]   // rowIndex tables
	gslots bump[groupSlot] // GroupBy tables
	levels bump[joinLevel] // the join's levels

	join joinScratch // GenericJoin's plan and cursors, taken from the backings above
}

// arenaBackings is the number of typed backings of a kernelArena.
const arenaBackings = 8

// arenaHints holds, per typed backing, the largest total a pooled call
// has taken, less an eighth for each fresh arena since: a fresh arena's
// backings start at these sizes, and the decay lets a one-off large
// call (a driver-side sort of a whole relation) stop sizing arenas
// after a few refills. They are sizes, not memory: nothing is retained
// across the pool's collection.
var arenaHints [arenaBackings]atomic.Int64

var arenaPool = sync.Pool{New: func() any {
	a := new(kernelArena)
	for i, b := range a.backings() {
		h := &arenaHints[i]
		size := h.Load()
		h.CompareAndSwap(size, size-size/8)
		b.setHint(h, int(size))
	}
	a.join.a = a
	return a
}}

// backings lists the arena's typed backings, in arenaHints order.
func (a *kernelArena) backings() [arenaBackings]backing {
	return [arenaBackings]backing{&a.u64, &a.i32, &a.vals, &a.ints, &a.refs, &a.slots, &a.gslots, &a.levels}
}

func getArena() *kernelArena { return arenaPool.Get().(*kernelArena) }

func putArena(a *kernelArena) {
	for _, b := range a.backings() {
		b.rewind()
	}
	arenaPool.Put(a)
}

// backing is the type-independent side of a bump: what putArena and
// the pool need.
type backing interface {
	setHint(h *atomic.Int64, first int)
	rewind()
}

// bump is one typed backing of an arena. take hands out consecutive
// slices of buf; rewind makes all of it free again. used is what the
// current call holds across every backing it took from, and peak its
// maximum, which rewind reports to the hint.
type bump[T any] struct {
	buf        []T
	off        int
	used, peak int
	first      int           // the hint when the arena was made: no backing is smaller
	hint       *atomic.Int64 // nil for a private arena
}

// take returns n elements of the backing, holding whatever an earlier
// call left there; the capacity is n, so an append never runs into the
// next slice. A private arena serves one call, so where n does not fit
// it allocates exactly n; a pooled one grows to fit the whole call.
func (b *bump[T]) take(n int) []T {
	if b.off+n > len(b.buf) {
		size := n
		if b.hint != nil {
			size = max(2*len(b.buf), b.used+n, b.first)
		}
		b.buf, b.off = make([]T, size), 0
	}
	s := b.buf[b.off : b.off+n : b.off+n]
	b.off += n
	b.used += n
	b.peak = max(b.peak, b.used)
	return s
}

// takeZero is take with every element zeroed.
func (b *bump[T]) takeZero(n int) []T {
	s := b.take(n)
	clear(s)
	return s
}

// give returns s to the backing when it is the last slice take handed
// out, so a temporary's room serves the next take of the same call.
func (b *bump[T]) give(s []T) {
	if n := len(s); n > 0 && b.off >= n && &b.buf[b.off-n] == &s[0] {
		b.off -= n
		b.used -= n
	}
}

func (b *bump[T]) setHint(h *atomic.Int64, first int) { b.hint, b.first = h, first }

func (b *bump[T]) rewind() {
	if b.hint != nil {
		for h := b.hint.Load(); int64(b.peak) > h && !b.hint.CompareAndSwap(h, int64(b.peak)); h = b.hint.Load() {
		}
	}
	b.off, b.used, b.peak = 0, 0, 0
}

// idxSlot is one open-addressing slot of a rowIndex: the key's hash,
// its group number, and in row the first row inserted with the key,
// plus one, so that zero marks an empty slot. The collision check
// compares a probe against that row.
type idxSlot struct {
	hash  uint64
	row   int32
	group int32
}

// groupRef addresses one key group inside a rowIndex: rows[start :
// start+count] are the matching row ids, in ascending order.
type groupRef struct{ start, count int32 }

// rowIndex is the radix-partitioned hash index over a key column set.
// Partition = hash >> shift (high bits); within partition p the slot
// region is slots[pOff[p] : pOff[p+1]], addressed by hash & pMask[p]
// (low bits) with linear probing. Regions are sized to 2 slots per
// build row, so the load factor never exceeds 1/2 and probes terminate.
//
// Each new key takes the next group number, so groups are numbered
// 0 … distinct−1 in insert order. The grouped form (buildRowIndex) lays
// group g's row ids out at rows[start[g] : start[g+1]], ascending; the
// key-only form (buildKeyIndex) has neither array and answers only
// whether a key is present.
type rowIndex struct {
	rel      *Relation
	cols     []int
	shift    uint
	pOff     []int
	pMask    []uint64
	slots    []idxSlot
	start    []int32
	rows     []int32
	distinct int
}

// partitionScatter computes per-partition row counts for hashes and, if
// nparts > 1, scatters row ids (and their hashes) into partition order.
// The counting sort is stable, so row ids stay ascending within each
// partition — the property that keeps every key group's row list in
// the original relation order.
func partitionScatter(a *kernelArena, hashes []uint64, nparts int, shift uint) (ordRows []int32, ordHash []uint64, pcnt []int32) {
	n := len(hashes)
	pcnt = a.i32.takeZero(nparts)
	if nparts == 1 {
		pcnt[0] = int32(n)
		return nil, hashes, pcnt
	}
	for _, h := range hashes {
		pcnt[h>>shift]++
	}
	cur := a.i32.take(nparts)
	off := int32(0)
	for p := 0; p < nparts; p++ {
		cur[p] = off
		off += pcnt[p]
	}
	ordRows = a.i32.take(n)
	ordHash = a.u64.take(n)
	for i, h := range hashes {
		c := cur[h>>shift]
		ordRows[c] = int32(i)
		ordHash[c] = h
		cur[h>>shift] = c + 1
	}
	return ordRows, ordHash, pcnt
}

// sizeRegions assigns each partition a power-of-two slot region of at
// least twice its row count, so the load factor never exceeds 1/2 even
// if every row starts its own key group. It returns the per-partition
// region offsets and slot-index masks (arena-backed) and the total
// slot count.
func sizeRegions(a *kernelArena, pcnt []int32) (pOff []int, pMask []uint64, total int) {
	nparts := len(pcnt)
	pOff = a.ints.take(nparts + 1)
	pMask = a.u64.take(nparts)
	for p := 0; p < nparts; p++ {
		sz := nextPow2(2 * int(pcnt[p]))
		if sz < 4 {
			sz = 4
		}
		pOff[p] = total
		pMask[p] = uint64(sz - 1)
		total += sz
	}
	pOff[nparts] = total
	return pOff, pMask, total
}

// buildKeyIndex builds the key-only form of ix over rel's cols using
// a's scratch: the slot table, with no row layout. It inserts the rows
// in partition order, ascending within each partition, and returns
// that order (nil when it is row order) together with the group number
// of each row inserted, written over the row's hash, which nothing
// reads after its insert. The slots stay referenced by ix, so the arena
// must outlive it.
func buildKeyIndex(ix *rowIndex, rel *Relation, cols []int, a *kernelArena) (ordRows []int32, groups []uint64) {
	n := rel.Len()
	checkRowCount("BuildIndex", n)
	nparts := radixParts(n)
	*ix = rowIndex{rel: rel, cols: cols, shift: uint(64 - bits.TrailingZeros(uint(nparts)))}

	hashes := a.u64.take(n)
	for i := 0; i < n; i++ {
		hashes[i] = kernelRowHash(rel.Row(i), cols, kernelSeed)
	}
	ordRows, groups, pcnt := partitionScatter(a, hashes, nparts, ix.shift)
	var total int
	ix.pOff, ix.pMask, total = sizeRegions(a, pcnt)
	ix.slots = a.slots.takeZero(total)
	if ordRows == nil {
		for i, h := range groups {
			groups[i] = uint64(ix.insert(int32(i), h))
		}
	} else {
		// Partition-ordered inserts keep each region cache-hot.
		for i, h := range groups {
			groups[i] = uint64(ix.insert(ordRows[i], h))
		}
	}
	return ordRows, groups
}

// insert adds row, of hash h, to the table and returns its key's group
// number: the stored key's when a slot holds it, else the next one.
func (ix *rowIndex) insert(row int32, h uint64) int32 {
	p := h >> ix.shift
	base, mask := ix.pOff[p], ix.pMask[p]
	slots := ix.slots[base : base+int(mask)+1]
	j := h & mask
	for {
		s := &slots[j]
		if s.row == 0 {
			g := int32(ix.distinct)
			s.hash, s.row, s.group = h, row+1, g
			ix.distinct++
			return g
		}
		if s.hash == h && rowKeysEqual(ix.rel, ix.cols, int(s.row-1), int(row)) {
			return s.group
		}
		j = (j + 1) & mask
	}
}

// buildRowIndex builds the grouped form of ix over rel's cols using a's
// scratch. After the inserts, one pass counts each group's rows, a
// prefix sum over the groups turns the counts into group ends, and one
// counting scatter, back to front over the insert order, writes each
// row id at its group's end and moves the end down. A group's rows are
// inserted in ascending order, so they come out ascending, and the
// ends come out as the group starts. The slot, start and row arrays
// stay referenced by ix, so the arena must outlive it.
func buildRowIndex(ix *rowIndex, rel *Relation, cols []int, a *kernelArena) {
	ordRows, groups := buildKeyIndex(ix, rel, cols, a)
	ng := ix.distinct
	start := a.i32.takeZero(ng + 1)
	for _, g := range groups {
		start[g]++
	}
	end := int32(0)
	for g := range start {
		end += start[g]
		start[g] = end
	}
	rows := a.i32.take(len(groups))
	if ordRows == nil {
		for i := len(groups) - 1; i >= 0; i-- {
			g := groups[i]
			start[g]--
			rows[start[g]] = int32(i)
		}
	} else {
		for i := len(groups) - 1; i >= 0; i-- {
			g := groups[i]
			start[g]--
			rows[start[g]] = ordRows[i]
		}
	}
	ix.start, ix.rows = start, rows
}

// rowKeysEqual reports whether rows i and j of rel agree on cols.
func rowKeysEqual(rel *Relation, cols []int, i, j int) bool {
	ri, rj := rel.Row(i), rel.Row(j)
	for _, c := range cols {
		if ri[c] != rj[c] {
			return false
		}
	}
	return true
}

// lookup returns the group number of probe's key (under probeCols),
// whose hash is h, or −1 when the key is absent. Either form of the
// index answers it.
func (ix *rowIndex) lookup(h uint64, probe []Value, probeCols []int) int32 {
	if ix.distinct == 0 {
		return -1
	}
	p := h >> ix.shift
	base, mask := ix.pOff[p], ix.pMask[p]
	slots := ix.slots[base : base+int(mask)+1]
	j := h & mask
	for {
		s := &slots[j]
		if s.row == 0 {
			return -1
		}
		if s.hash == h && ix.keyMatches(int(s.row-1), probe, probeCols) {
			return s.group
		}
		j = (j + 1) & mask
	}
}

// keyMatches verifies a hash hit against the actual key columns of a
// representative stored row — the collision check that keeps distinct
// keys with equal hashes apart.
func (ix *rowIndex) keyMatches(row int, probe []Value, probeCols []int) bool {
	stored := ix.rel.Row(row)
	for k, c := range ix.cols {
		if stored[c] != probe[probeCols[k]] {
			return false
		}
	}
	return true
}

// ref returns where group g's rows lie in the grouped index; a zero
// groupRef for g = −1, an absent key.
func (ix *rowIndex) ref(g int32) groupRef {
	if g < 0 {
		return groupRef{}
	}
	return groupRef{ix.start[g], ix.start[g+1] - ix.start[g]}
}

// group returns the row ids of one key group, ascending.
func (ix *rowIndex) group(g groupRef) []int32 {
	return ix.rows[g.start : g.start+g.count : g.start+g.count]
}

// groupSlot is one open-addressing slot of the grouping kernels
// (GroupBy): gid holds the group id plus one, so zero marks
// an empty slot.
type groupSlot struct {
	hash uint64
	gid  int32
}
