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
// Each input is sorted once, by its columns in variable order, and
// stored column by column; a relation's rows that agree with the
// current binding prefix are then always one contiguous range of those
// columns, so binding a variable is a galloping intersection of ranges
// and nothing is regrouped or allocated per binding. All of that lives
// in the pooled kernelArena; only the output is heap-allocated.
//
// varOrder must list every attribute appearing in the inputs exactly
// once; the output schema is varOrder. The output holds one row per
// binding (set semantics, whatever the inputs' multiplicities), sorted
// lexicographically.
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
	t.levels = t.levels[:0]
	t.depthAt = t.depthAt[:0]
	for _, v := range varOrder {
		t.depthAt = append(t.depthAt, len(t.levels))
		for i, r := range rels {
			if c := r.Col(v); c >= 0 {
				t.levels = append(t.levels, trieLevel{rel: i, srcCol: c, next: -1})
			}
		}
		if t.depthAt[len(t.depthAt)-1] == len(t.levels) {
			return out // a variable no input constrains has no finite binding
		}
	}
	t.depthAt = append(t.depthAt, len(t.levels))

	// vals holds every input's sorted columns back to back, then one
	// row-major staging area the widest input fits in.
	vals := arenaI64(&t.vals, words+widest)
	stage := vals[words:]
	for i, r := range rels {
		n, k := r.Len(), r.Arity()
		if k == 0 {
			continue
		}
		rows := stage[:n*k]
		copy(rows, r.data)
		order := make([]int, 0, 8)
		prev := -1
		for li := range t.levels {
			if l := &t.levels[li]; l.rel == i {
				l.col, vals = vals[:n:n], vals[n:]
				l.hi = n
				if prev >= 0 {
					t.levels[prev].next = li
				}
				prev = li
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

	if len(varOrder) == 0 {
		out.nrows = 1 // every input is a true nullary atom: the empty binding
		return out
	}
	t.binding = arenaI64(&t.binding, len(varOrder))
	t.out = nil
	t.bind(0)
	out.data, t.out = t.out, nil
	return out
}

// trieLevel is one (relation, trie level) pair: the relation's column
// for one variable, in the relation's sorted row order. [lo, hi) is the
// range of rows agreeing with the variables bound so far — the whole
// relation at its first level, afterwards the run its previous level
// matched — and next is the relation's following level, or -1.
type trieLevel struct {
	col         []Value
	lo, hi      int
	cur, run    int
	next        int
	rel, srcCol int
}

// trieScratch is GenericJoin's share of the kernelArena: the levels in
// depth order (levels[depthAt[d]:depthAt[d+1]] constrain varOrder[d],
// which depends on the depth only), the storage their columns point
// into, the current binding and the output rows being collected.
type trieScratch struct {
	levels  []trieLevel
	depthAt []int
	vals    []Value
	binding []Value
	out     []Value
}

// bind enumerates the values of variable d consistent with the bound
// prefix — the leapfrog intersection of the depth's levels over their
// current ranges — and for each one narrows the next level of every
// participating relation to the matching run and recurses. Ranges are
// never empty on entry: every input is non-empty and a run has a row.
func (t *trieScratch) bind(d int) {
	ps := t.levels[t.depthAt[d]:t.depthAt[d+1]]
	for i := range ps {
		ps[i].cur = ps[i].lo
	}
	last := d == len(t.binding)-1
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
		t.binding[d] = v
		for i := range ps {
			p := &ps[i]
			p.run = seekGT(p.col, p.cur, p.hi, v)
			if p.next >= 0 {
				t.levels[p.next].lo, t.levels[p.next].hi = p.cur, p.run
			}
		}
		if last {
			t.out = append(t.out, t.binding...)
		} else {
			t.bind(d + 1)
		}
		for i := range ps {
			p := &ps[i]
			if p.cur = p.run; p.cur == p.hi {
				return
			}
		}
	}
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
