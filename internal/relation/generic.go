package relation

import (
	"math"
	"slices"
)

// GenericJoin is a worst-case-optimal multiway join — Leapfrog Triejoin
// (Veldhuizen '14), the sorted-trie form of NPRR's generic join: it
// binds one variable at a time, intersecting the candidate values of
// every relation that contains the variable. On cyclic queries such as
// the triangle it avoids the intermediate-result blowup of binary join
// plans (slide 63), which is why the HyperCube local evaluation uses it
// by default.
//
// The binding order is the kernel's own, not varOrder: first the
// variable in the most inputs, then repeatedly the variable that the
// most inputs have already narrowed (an input is narrowed once one of
// its variables is bound), ties going to the variable in more inputs
// and then to the earlier varOrder position. Path R(x,y), S(y,z),
// T(z,w) binds y, z, x, w; the triangle binds x, y, z.
//
// Each input is sorted once, by its columns in binding order, and
// stored column by column; a relation's rows that agree with the
// current binding prefix are then always one contiguous range of those
// columns. A relation's first level spans its whole column, so where
// it meets levels an earlier variable narrowed, it is hashed once per
// call (value → run) and probed for each value of the narrowed levels'
// intersection; a depth whose levels are all first levels, or all
// narrowed, is a galloping leapfrog over ranges. Nothing is regrouped
// or allocated per binding: the columns, level table and hash indexes
// live in the pooled kernelArena, and only the output, grown by
// doubling, is heap-allocated.
//
// varOrder must list every attribute appearing in the inputs exactly
// once; the output schema is varOrder. The output holds one row per
// binding (set semantics, whatever the inputs' multiplicities), in no
// promised order.
func GenericJoin(name string, varOrder []string, rels ...*Relation) *Relation {
	if len(rels) == 0 {
		panic("relation: GenericJoin of nothing")
	}
	for i, v := range varOrder {
		if slices.Contains(varOrder[:i], v) {
			panic("relation: GenericJoin duplicate variable " + v)
		}
	}
	words, widest, empty := 0, 0, false
	for _, r := range rels {
		for _, a := range r.Attrs() {
			if !slices.Contains(varOrder, a) {
				panic("relation: GenericJoin variable order misses " + a)
			}
		}
		checkRowCount("GenericJoin", r.Len())
		words += r.Words()
		widest = max(widest, r.Words())
		empty = empty || r.Len() == 0
	}
	out := New(name, varOrder...)
	// An empty input — a false nullary atom included — empties the join;
	// a non-empty nullary one constrains nothing and builds no level.
	if empty {
		return out
	}
	a := getArena()
	defer putArena(a)
	t := &a.trie
	if !t.plan(varOrder, rels) {
		return out // a variable no input constrains has no finite binding
	}

	// vals holds every input's sorted columns back to back, then one
	// row-major staging area the widest input fits in.
	vals := a.vals.take(words + widest)
	stage := vals[words:]
	for i, r := range rels {
		n, k := r.Len(), r.Arity()
		if k == 0 {
			continue
		}
		rows := stage[:n*k]
		copy(rows, r.data)
		order := make([]int, 0, 8)
		for li := range t.levels {
			if l := &t.levels[li]; l.rel == i {
				l.col, vals = vals[:n:n], vals[n:]
				l.hi = n
				order = append(order, l.srcCol)
			}
		}
		sortRows(rows, k, order, a)
		for li := range t.levels {
			if l := &t.levels[li]; l.rel == i {
				for j := range l.col {
					l.col[j] = rows[j*k+l.srcCol]
				}
			}
		}
	}
	t.buildIndexes()

	if len(varOrder) == 0 {
		out.nrows = 1 // every input is a true nullary atom: the empty binding
		return out
	}
	t.binding = a.vals.take(len(varOrder))
	t.out = nil
	t.bind(0)
	out.data, t.out = t.out, nil
	return out
}

// trieLevel is one (relation, trie level) pair: the relation's column
// for one variable, in the relation's sorted row order. [lo, hi) is the
// range of rows agreeing with the variables bound so far — the whole
// relation at its first level, afterwards the run its previous level
// matched — and next is the relation's following level, or -1. A
// probed first level also owns tab, its open-addressed run index
// (mask = len(tab) − 1).
type trieLevel struct {
	col         []Value
	lo, hi      int
	cur, run    int
	next        int
	rel, srcCol int
	tab         []runSlot
	mask        uint64
}

// runSlot is one slot of a probed level's index: the rows [lo, hi) of
// the sorted column hold key. hi == 0 marks an empty slot, since every
// run has a row.
type runSlot struct {
	key    Value
	lo, hi int32
}

// trieScratch is GenericJoin's share of the kernelArena: the binding
// order (order[d] is the varOrder position bound at depth d), the levels
// in depth order — levels[depthAt[d]:probeAt[d]] are leapfrogged at
// depth d and levels[probeAt[d]:depthAt[d+1]] probed — the current
// binding (in varOrder positions) and the output rows being collected.
// All but the output are taken from a's backings, as are the probed
// levels' indexes and the storage the columns point into.
type trieScratch struct {
	order   []int
	levels  []trieLevel
	depthAt []int
	probeAt []int
	binding []Value
	out     []Value
	a       *kernelArena
}

// plan picks the binding order and lays out the levels of every depth,
// narrowed levels first, linking each relation's levels through next.
// It reports false when some variable is in no input.
func (t *trieScratch) plan(varOrder []string, rels []*Relation) bool {
	levels := 0
	for _, r := range rels {
		levels += r.Arity()
	}
	ints := &t.a.ints
	t.order, t.levels = ints.take(len(varOrder))[:0], t.a.levels.take(levels)[:0]
	t.depthAt, t.probeAt = ints.take(len(varOrder) + 1)[:0], ints.take(len(varOrder))[:0]
	tail := ints.take(len(rels)) // each relation's deepest level so far, or -1
	for i := range tail {
		tail[i] = -1
	}
	for range varOrder {
		best, bestNarrowed, bestIn := -1, -1, -1
		for vi, v := range varOrder {
			if slices.Contains(t.order, vi) {
				continue
			}
			in, narrowed := 0, 0
			for i, r := range rels {
				if r.Col(v) >= 0 {
					in++
					if tail[i] >= 0 {
						narrowed++
					}
				}
			}
			if narrowed > bestNarrowed || narrowed == bestNarrowed && in > bestIn {
				best, bestNarrowed, bestIn = vi, narrowed, in
			}
		}
		if bestIn == 0 {
			return false
		}
		t.order = append(t.order, best)
		v, start := varOrder[best], len(t.levels)
		t.depthAt = append(t.depthAt, start)
		for _, narrowedPass := range []bool{true, false} {
			if !narrowedPass {
				t.probeAt = append(t.probeAt, len(t.levels))
			}
			for i, r := range rels {
				c := r.Col(v)
				if c < 0 || (tail[i] >= 0) != narrowedPass {
					continue
				}
				if tail[i] >= 0 {
					t.levels[tail[i]].next = len(t.levels)
				}
				tail[i] = len(t.levels)
				t.levels = append(t.levels, trieLevel{rel: i, srcCol: c, next: -1})
			}
		}
		// Probing needs both kinds: with none narrowed, or none first,
		// the whole depth is leapfrogged.
		if d := len(t.probeAt) - 1; t.probeAt[d] == start {
			t.probeAt[d] = len(t.levels)
		}
	}
	t.depthAt = append(t.depthAt, len(t.levels))
	return true
}

// buildIndexes indexes every probed level's sorted column by its runs,
// at load factor at most 1/2, in one arena table.
func (t *trieScratch) buildIndexes() {
	total := 0
	for d := range t.order {
		for li := t.probeAt[d]; li < t.depthAt[d+1]; li++ {
			l := &t.levels[li]
			runs := 1
			for j := 1; j < len(l.col); j++ {
				if l.col[j] != l.col[j-1] {
					runs++
				}
			}
			l.mask = uint64(nextPow2(2*runs) - 1)
			total += int(l.mask) + 1
		}
	}
	if total == 0 {
		return
	}
	slots := t.a.runs.takeZero(total)
	for d := range t.order {
		for li := t.probeAt[d]; li < t.depthAt[d+1]; li++ {
			l := &t.levels[li]
			l.tab, slots = slots[:l.mask+1], slots[l.mask+1:]
			for lo := 0; lo < len(l.col); {
				v, hi := l.col[lo], lo+1
				for hi < len(l.col) && l.col[hi] == v {
					hi++
				}
				h := kernelValHash(v, kernelSeed) & l.mask
				for l.tab[h].hi != 0 {
					h = (h + 1) & l.mask
				}
				l.tab[h] = runSlot{key: v, lo: int32(lo), hi: int32(hi)}
				lo = hi
			}
		}
	}
}

// probe returns the run of v in a probed level, or ok == false.
func (l *trieLevel) probe(v Value) (lo, hi int, ok bool) {
	for h := kernelValHash(v, kernelSeed) & l.mask; ; h = (h + 1) & l.mask {
		s := &l.tab[h]
		if s.hi == 0 {
			return 0, 0, false
		}
		if s.key == v {
			return int(s.lo), int(s.hi), true
		}
	}
}

// bind enumerates the values of the variable bound at depth d that are
// consistent with the bound prefix — the leapfrog intersection of the
// depth's leapfrogged levels over their current ranges, kept where
// every probed level holds the value — and for each one narrows the
// next level of every participating relation to the matching run and
// recurses. Ranges are never empty on entry: every input is non-empty
// and a run has a row.
func (t *trieScratch) bind(d int) {
	ps := t.levels[t.depthAt[d]:t.probeAt[d]]
	probed := t.levels[t.probeAt[d]:t.depthAt[d+1]]
	for i := range ps {
		ps[i].cur = ps[i].lo
	}
	slot := &t.binding[t.order[d]]
	last := d == len(t.order)-1
	for {
		// Leapfrog: raise every cursor to the largest head until all agree.
		v := ps[0].col[ps[0].cur]
		for agreed, i := 1, 0; agreed < len(ps); {
			if i++; i == len(ps) {
				i = 0
			}
			p := &ps[i]
			p.cur = seekGE(p.col, p.cur, p.hi, v)
			if p.cur == p.hi {
				return
			}
			if w := p.col[p.cur]; w != v {
				v, agreed = w, 1
			} else {
				agreed++
			}
		}
		for i := range ps {
			p := &ps[i]
			p.run = seekGT(p.col, p.cur, p.hi, v)
		}
		if t.probeAll(probed, v) {
			*slot = v
			for i := range ps {
				if p := &ps[i]; p.next >= 0 {
					t.levels[p.next].lo, t.levels[p.next].hi = p.cur, p.run
				}
			}
			if last {
				t.emit()
			} else {
				t.bind(d + 1)
			}
		}
		for i := range ps {
			p := &ps[i]
			if p.cur = p.run; p.cur == p.hi {
				return
			}
		}
	}
}

// probeAll looks v up in every probed level, narrowing each one's next
// level to v's run, and reports whether all of them hold it.
func (t *trieScratch) probeAll(probed []trieLevel, v Value) bool {
	for i := range probed {
		p := &probed[i]
		lo, hi, ok := p.probe(v)
		if !ok {
			return false
		}
		if p.next >= 0 {
			t.levels[p.next].lo, t.levels[p.next].hi = lo, hi
		}
	}
	return true
}

// emit appends the current binding to the output, doubling its
// capacity when full rather than taking append's gentler growth.
func (t *trieScratch) emit() {
	if n, k := len(t.out), len(t.binding); n+k > cap(t.out) {
		grown := make([]Value, n, max(2*cap(t.out), 64*k))
		copy(grown, t.out)
		t.out = grown
	}
	t.out = append(t.out, t.binding...)
}

// seekGE returns the first index in [lo, hi) whose value is at least v,
// or hi: a gallop from lo (the answer is usually near) and then a
// binary search inside the last stride. lo < hi.
func seekGE(col []Value, lo, hi int, v Value) int {
	if col[lo] >= v {
		return lo
	}
	step := 1
	for lo+step < hi && col[lo+step] < v {
		lo += step
		step <<= 1
	}
	hi = min(hi, lo+step)
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); col[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// seekGT is seekGE for the first value strictly above v: the end of
// v's run when col[lo] == v.
func seekGT(col []Value, lo, hi int, v Value) int {
	if v == math.MaxInt64 {
		return hi
	}
	return seekGE(col, lo, hi, v+1)
}
