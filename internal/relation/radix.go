package relation

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Radix-partitioned open-addressing hash kernels. Every local operator
// that used to key a Go map on EncodeKey strings (BuildIndex/HashJoin,
// GroupBy, Distinct) now runs on these: rows are hashed once with
// HashRow, partitioned by the high hash bits so each partition's table
// region stays cache-resident, and inserted into an open-addressing
// region addressed by the low hash bits. A slot matches only when both
// the full 64-bit hash and the actual key columns compare equal, so
// hash collisions are verified against the stored rows and never merge
// distinct keys.
//
// Build-side scratch (hash arrays, partition counters, chain links,
// slot regions, grouped row ids) lives in a kernelArena recycled
// through a sync.Pool, so steady-state rounds of an MPC run reuse the
// same allocations instead of rebuilding map buckets every round.

// kernelSeed is the fixed seed the local-operator kernels hash under.
// It is independent of the per-round routing seeds, so table layout
// never correlates with how tuples were partitioned across servers.
const kernelSeed uint64 = 0x8c5d1b6f0f3a9e21

// kernelRowHash and kernelValHash are the hash hooks for the kernels.
// Tests override them with deliberately weak functions to force full
// 64-bit hash collisions and exercise the key-verification path.
var (
	kernelRowHash = fastRowHash
	kernelValHash = fastValHash
)

// fastValHash is a splitmix64-style mixer: far cheaper than the
// byte-at-a-time Hash64 used for routing, and only ever consumed by
// the local kernels (table layout is internal, so it need not match
// the routing hash). Both the high bits (partition selection) and the
// low bits (slot index) come out well mixed.
func fastValHash(v Value, seed uint64) uint64 {
	x := uint64(v) ^ seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

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

// kernelArena holds the reusable scratch of one kernel invocation. One
// arena is checked out of a pool per operator call and returned when
// the operator's output has been emitted, so the backing arrays are
// reused across rounds instead of reallocated. An Index returned to a
// caller (BuildIndex) owns a private arena that is simply dropped with
// the Index, never repooled.
type kernelArena struct {
	hashes  []uint64 // per-row key hash
	ordHash []uint64 // hashes in partition-scatter order
	ordRows []int32  // row ids in partition-scatter order
	next    []int32  // chain links: next row with the same key
	pcnt    []int32  // rows per partition
	pcur    []int32  // scatter/emit cursors per partition
	refs    []groupRef
	slots   []idxSlot
	rows    []int32 // row ids grouped by key
	gslots  []groupSlot
	pOff    []int    // per-partition slot-region offsets
	pMask   []uint64 // per-partition slot-index masks
	keys    []Value  // flat group-key storage, arity per group
	aggs    []Value  // per-group aggregate accumulator
	cnts    []int64  // per-group row count
	order   []int32  // group emit order
	sortTmp []Value  // sortRows' second row buffer

	trie trieScratch // GenericJoin's sorted columns, levels and binding
}

var arenaPool = sync.Pool{New: func() any { return new(kernelArena) }}

func getArena() *kernelArena  { return arenaPool.Get().(*kernelArena) }
func putArena(a *kernelArena) { arenaPool.Put(a) }

func arenaU64(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func arenaI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func arenaI64(buf *[]int64, n int) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func arenaRefs(buf *[]groupRef, n int) []groupRef {
	if cap(*buf) < n {
		*buf = make([]groupRef, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func arenaSlots(buf *[]idxSlot, n int) []idxSlot {
	if cap(*buf) < n {
		*buf = make([]idxSlot, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

func arenaGSlots(buf *[]groupSlot, n int) []groupSlot {
	if cap(*buf) < n {
		*buf = make([]groupSlot, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// idxSlot is one open-addressing slot of a rowIndex. During the insert
// pass start holds the chain-head row id; the finalize pass rewrites it
// to the group's offset into the grouped rows array. count==0 marks an
// empty slot (every occupied slot holds at least one row).
type idxSlot struct {
	hash  uint64
	start int32
	count int32
}

// groupRef addresses one key group inside a rowIndex: rows[start :
// start+count] are the matching row ids, in ascending order.
type groupRef struct{ start, count int32 }

// rowIndex is the radix-partitioned hash index over a key column set.
// Partition = hash >> shift (high bits); within partition p the slot
// region is slots[pOff[p] : pOff[p+1]], addressed by hash & pMask[p]
// (low bits) with linear probing. Regions are sized to 2 slots per
// build row, so the load factor never exceeds 1/2 and probes terminate.
type rowIndex struct {
	rel      *Relation
	cols     []int
	shift    uint
	pOff     []int
	pMask    []uint64
	slots    []idxSlot
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
	pcnt = arenaI32(&a.pcnt, nparts)
	clear(pcnt)
	if nparts == 1 {
		pcnt[0] = int32(n)
		return nil, hashes, pcnt
	}
	for _, h := range hashes {
		pcnt[h>>shift]++
	}
	cur := arenaI32(&a.pcur, nparts)
	off := int32(0)
	for p := 0; p < nparts; p++ {
		cur[p] = off
		off += pcnt[p]
	}
	ordRows = arenaI32(&a.ordRows, n)
	ordHash = arenaU64(&a.ordHash, n)
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
	if cap(a.pOff) < nparts+1 {
		a.pOff = make([]int, nparts+1)
		a.pMask = make([]uint64, nparts)
	}
	pOff = a.pOff[:nparts+1]
	pMask = a.pMask[:nparts]
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

// buildRowIndex builds ix over rel's cols using a's scratch. The slot
// and row arrays stay referenced by ix, so the arena must outlive it.
func buildRowIndex(ix *rowIndex, rel *Relation, cols []int, a *kernelArena) {
	n := rel.Len()
	checkRowCount("BuildIndex", n)
	nparts := radixParts(n)
	*ix = rowIndex{rel: rel, cols: cols, shift: uint(64 - bits.TrailingZeros(uint(nparts)))}

	hashes := arenaU64(&a.hashes, n)
	for i := 0; i < n; i++ {
		hashes[i] = kernelRowHash(rel.Row(i), cols, kernelSeed)
	}
	ordRows, ordHash, pcnt := partitionScatter(a, hashes, nparts, ix.shift)
	var total int
	ix.pOff, ix.pMask, total = sizeRegions(a, pcnt)
	slots := arenaSlots(&a.slots, total)
	next := arenaI32(&a.next, n)

	insert := func(row int32, h uint64) {
		p := h >> ix.shift
		base, mask := ix.pOff[p], ix.pMask[p]
		j := h & mask
		for {
			s := &slots[base+int(j)]
			if s.count == 0 {
				s.hash, s.start, s.count = h, row, 1
				next[row] = -1
				ix.distinct++
				return
			}
			if s.hash == h && rowKeysEqual(rel, cols, int(s.start), int(row)) {
				next[row] = s.start
				s.start = row
				s.count++
				return
			}
			j = (j + 1) & mask
		}
	}
	if ordRows == nil {
		for i := 0; i < n; i++ {
			insert(int32(i), hashes[i])
		}
	} else {
		// Partition-ordered inserts keep each region cache-hot.
		for i, row := range ordRows {
			insert(row, ordHash[i])
		}
	}

	// Finalize: flatten the per-slot chains into one grouped row array.
	// Chains link newest-first, so writing each group back-to-front
	// restores ascending row order within the group.
	rows := arenaI32(&a.rows, n)
	off := int32(0)
	for si := range slots {
		s := &slots[si]
		if s.count == 0 {
			continue
		}
		head := s.start
		s.start = off
		off += s.count
		w := off
		for r := head; r >= 0; r = next[r] {
			w--
			rows[w] = r
		}
	}
	ix.slots, ix.rows = slots, rows
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

// lookupRef returns the key group matching probe (under probeCols), or
// a zero groupRef when the key is absent.
func (ix *rowIndex) lookupRef(probe []Value, probeCols []int) groupRef {
	return ix.lookupRefH(kernelRowHash(probe, probeCols, kernelSeed), probe, probeCols)
}

func (ix *rowIndex) lookupRefH(h uint64, probe []Value, probeCols []int) groupRef {
	if ix.distinct == 0 {
		return groupRef{}
	}
	p := h >> ix.shift
	base, mask := ix.pOff[p], ix.pMask[p]
	j := h & mask
	for {
		s := &ix.slots[base+int(j)]
		if s.count == 0 {
			return groupRef{}
		}
		if s.hash == h && ix.keyMatches(int(ix.rows[s.start]), probe, probeCols) {
			return groupRef{s.start, s.count}
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

// group returns the row ids of one key group, ascending.
func (ix *rowIndex) group(g groupRef) []int32 {
	return ix.rows[g.start : g.start+int32(g.count) : g.start+int32(g.count)]
}

// groupSlot is one open-addressing slot of the grouping kernels
// (GroupBy, Distinct): gid holds the group id plus one, so zero marks
// an empty slot.
type groupSlot struct {
	hash uint64
	gid  int32
}
