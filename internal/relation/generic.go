package relation

import (
	"math"
	"math/bits"
	"slices"
)

// GenericJoin is the multiway local join kernel: NPRR's generic join
// over hash levels. It binds the variables one step at a time. An
// input's level at a step indexes the input on its variables bound
// through that step — its rows grouped by key and copied in group
// order, and a table from key to group — built on first use. A step
// either
//
//   - intersects: it binds one variable, iterating the smallest
//     candidate group one value at a time and probing the other inputs
//     holding the variable; or
//   - binds all of one input's remaining variables at once, when every
//     variable it leaves unbound is held by one input only: it iterates
//     the input's group, or its whole row set if nothing has narrowed
//     it, as a hash join iterates its probe side or emits a build-side
//     group, and probes the other inputs holding one of the variables.
//
// It never builds a pairwise intermediate and sorts no input; on
// cyclic queries such as the triangle it avoids the intermediate-result
// blowup of binary join plans (slide 63), which is why every HyperCube
// server uses it by default.
//
// The binding order is the kernel's own, not varOrder: first the
// variable in the most inputs, then repeatedly the variable that the
// most inputs have already narrowed (an input is narrowed once one of
// its variables is bound), ties going to the variable in more inputs
// and then to the earlier varOrder position. Path R(x,y), S(y,z),
// T(z,w) binds y, z, x, w — one step iterating S and probing R and T,
// then R's and T's groups emitted; the triangle intersects on x, y and
// z. Only the output is heap-allocated.
//
// The inputs are sets, as everywhere in the engine (relations become
// sets where they enter, through Distinct); the kernel does not look
// for repeated rows. varOrder must list every attribute appearing in
// the inputs exactly once; the output schema is varOrder. The output
// holds one row per binding, in no promised order: on sets, distinct
// rows an iterating step walks are distinct bindings. A nullary input
// is a boolean: false (no tuple) empties the join, true changes
// nothing.
func GenericJoin(name string, varOrder []string, rels ...*Relation) *Relation {
	if len(rels) == 0 {
		panic("relation: GenericJoin of nothing")
	}
	for i, v := range varOrder {
		if slices.Contains(varOrder[:i], v) {
			panic("relation: GenericJoin duplicate variable " + v)
		}
	}
	a := getArena()
	defer putArena(a)
	j := &a.join
	empty := j.load(varOrder, rels)
	out := New(name, varOrder...)
	if !empty && j.plan(len(varOrder), rels) {
		if len(varOrder) == 0 {
			out.nrows = 1 // every input is a true nullary atom: the empty binding
		} else {
			j.binding = a.vals.take(len(varOrder))
			j.run(0)
			out.data = j.out
		}
	}
	clear(j.levels)
	j.out = nil // nothing pooled keeps the inputs or the output alive
	return out
}

// joinLevel is one input's part in one step of the join. At an
// intersection it is the input's index on cols, the columns of its
// variables bound through the step, probed with the binding's values at
// keys. At a step binding the input's remaining variables, cols are
// their columns and keys their binding slots.
type joinLevel struct {
	in   *Relation // the input
	prev int       // the input's level at its previous step, or -1: none narrowed it
	cols []int     // see above
	keys []int
	col  int  // an intersection's variable's column in the input
	k    int  // the input's arity
	last bool // the input has no variable left after this step

	// The index, built on first use: the input's rows bucketed by the
	// top bits of their key's hash (bucket b is rows [bucket[b],
	// bucket[b+1])) and grouped by key within a bucket, copied row-major
	// (vals), with their row ids (ids, ascending within a group) where
	// needIDs. A group starting at row p holds rows [p, end[p]), and the
	// bucket's next group starts at end[p]. d counts the groups.
	vals    []Value
	ids     []int32
	needIDs bool
	end     []int32
	bucket  []int32
	shift   uint
	d       int
	built   bool

	lo, hi int // the group agreeing with the binding through this step
}

// joinScratch is GenericJoin's share of the kernelArena: the inputs'
// variables as varOrder positions, the binding order (order[d] is the
// varOrder position bound d-th), the steps — step s binds varOrder
// position stepVar[s], or all of one input's remaining variables when
// that is -1, and its levels are levels[stepAt[s]:stepAt[s+1]] — the
// current binding (in varOrder positions) and the output rows being
// collected. All but the output are taken from a's backings.
type joinScratch struct {
	vars    []int // input i's variables are vars[varAt[i]:varAt[i+1]]
	varAt   []int
	order   []int
	stepVar []int
	stepAt  []int
	levels  []joinLevel
	binding []Value
	out     []Value
	a       *kernelArena
}

// load records the inputs and each one's variables as varOrder
// positions, and reports whether an input is empty: an empty input — a
// false nullary atom included — empties the join, and a non-empty
// nullary one constrains nothing.
func (j *joinScratch) load(varOrder []string, rels []*Relation) (empty bool) {
	j.varAt = j.a.ints.take(len(rels) + 1)
	j.vars = j.a.ints.take(len(rels) * len(varOrder))[:0] // an input holds each variable at most once
	for i, r := range rels {
		j.varAt[i] = len(j.vars)
		for _, at := range r.Attrs() {
			p := slices.Index(varOrder, at)
			if p < 0 {
				panic("relation: GenericJoin variable order misses " + at)
			}
			j.vars = append(j.vars, p)
		}
		checkRowCount("GenericJoin", r.Len())
		empty = empty || r.Len() == 0
	}
	j.varAt[len(rels)] = len(j.vars)
	return empty
}

// varsOf returns input i's variables as varOrder positions, in column
// order.
func (j *joinScratch) varsOf(i int) []int { return j.vars[j.varAt[i]:j.varAt[i+1]] }

// plan picks the binding order over nv variables and lays out the steps
// and their levels. It reports false when some variable is in no input.
func (j *joinScratch) plan(nv int, rels []*Relation) bool {
	ints, nr := &j.a.ints, len(rels)
	in := ints.takeZero(nv) // how many inputs hold each variable
	for _, p := range j.vars {
		in[p]++
	}
	j.order = ints.take(nv)[:0]
	narrowed := ints.takeZero(nr)
	for range nv {
		best, bestNarrowed := -1, -1
		for p := range nv {
			if slices.Contains(j.order, p) {
				continue
			}
			n := 0
			for i := range nr {
				if narrowed[i] != 0 && slices.Contains(j.varsOf(i), p) {
					n++
				}
			}
			if n > bestNarrowed || n == bestNarrowed && in[p] > in[best] {
				best, bestNarrowed = p, n
			}
		}
		if in[best] == 0 {
			return false
		}
		j.order = append(j.order, best)
		for i := range nr {
			if slices.Contains(j.varsOf(i), best) {
				narrowed[i] = 1
			}
		}
	}

	j.levels = j.a.levels.take(len(j.vars))[:0]
	j.stepVar, j.stepAt = ints.take(nv)[:0], ints.take(nv + 1)[:0]
	tail := narrowed // each input's latest level, or -1
	for i := range tail {
		tail[i] = -1
	}
	bound := ints.takeZero(nv) // 1 once bound, 2 while the hash step being laid out binds it
	for _, p := range j.order {
		if bound[p] != 0 {
			continue // a hash step bound it
		}
		j.stepAt = append(j.stepAt, len(j.levels))
		cover, holders, first := -1, 0, true
		for i := range nr {
			if slices.Contains(j.varsOf(i), p) {
				holders++
				first = first && tail[i] < 0
			}
		}
		if first || holders == 1 {
			for i, r := range rels {
				if slices.Contains(j.varsOf(i), p) && j.coversRest(i, bound, in, first) && (cover < 0 || r.Len() >= rels[cover].Len()) {
					cover = i
				}
			}
		}
		if cover < 0 {
			j.stepVar = append(j.stepVar, p)
			bound[p] = 1
			for i := range nr {
				if col := slices.Index(j.varsOf(i), p); col >= 0 {
					j.addLevel(rels[i], i, col, bound, tail, false)
				}
			}
			continue
		}
		j.stepVar = append(j.stepVar, -1)
		for _, q := range j.varsOf(cover) {
			if bound[q] == 0 {
				bound[q] = 2
			}
		}
		j.addLevel(rels[cover], cover, -1, bound, tail, true)
		for i := range nr {
			if i != cover && slices.ContainsFunc(j.varsOf(i), func(q int) bool { return bound[q] == 2 }) {
				j.addLevel(rels[i], i, -1, bound, tail, false)
			}
		}
		for q := range bound {
			bound[q] = min(bound[q], 1)
		}
	}
	j.stepAt = append(j.stepAt, len(j.levels))
	return true
}

// coversRest reports whether input i can be a hash step's iterated
// input: when the step's inputs are all unnarrowed (first), every
// unbound variable outside i is in one input only; otherwise, when i is
// the step's one input, every unbound variable of i is in i only. Then
// binding all of i's variables at once leaves nothing to intersect but
// variables each held by one input.
func (j *joinScratch) coversRest(i int, bound, in []int, first bool) bool {
	vars := j.varsOf(i)
	for q := range bound {
		if bound[q] == 0 && in[q] > 1 && slices.Contains(vars, q) != first {
			return false
		}
	}
	return true
}

// addLevel appends input i's level at the current step: for a hash
// step's iterated input (cover), on the variables the step binds;
// otherwise on its bound variables, col being the column of the
// intersection's variable.
func (j *joinScratch) addLevel(in *Relation, i, col int, bound, tail []int, cover bool) {
	vars := j.varsOf(i)
	lv := joinLevel{in: in, prev: tail[i], col: col, k: len(vars), last: true}
	lv.cols, lv.keys = j.a.ints.take(len(vars))[:0], j.a.ints.take(len(vars))[:0]
	for c, q := range vars {
		if cover && bound[q] == 2 || !cover && bound[q] != 0 {
			lv.cols, lv.keys = append(lv.cols, c), append(lv.keys, q)
		} else if !cover && bound[q] == 0 {
			lv.last = false
		}
	}
	if !cover && col >= 0 && lv.prev >= 0 && !lv.last {
		// The step may iterate the previous level's rows one value at a
		// time, taking each at its group's first row.
		lv.needIDs, j.levels[lv.prev].needIDs = true, true
	}
	tail[i] = len(j.levels)
	j.levels = append(j.levels, lv)
}

// index builds l's index on first use and returns its group count.
// One pass hashes every row's key and counts the rows per bucket, a
// second copies the rows bucket by bucket, and a third groups each
// bucket's rows by key: buckets hold two rows on average, so a group
// is found by a scan of its bucket.
func (j *joinScratch) index(l *joinLevel) int {
	if l.built {
		return l.d
	}
	l.built = true
	a, rel, k := j.a, l.in, l.k
	n, data := rel.Len(), rel.data
	nb := nextPow2(max(n/2, 1))
	l.shift = uint(64 - bits.TrailingZeros(uint(nb))) // 64 for one bucket: every h>>64 is 0
	l.end = a.i32.take(n)
	home := l.end // each row's bucket, until the groups are laid out
	l.bucket = a.i32.takeZero(nb + 1)
	for i := range n {
		b := int32(kernelRowHash(data[i*k:i*k+k], l.cols, kernelSeed) >> l.shift)
		home[i] = b
		l.bucket[b+1]++
	}
	for b := range nb {
		l.bucket[b+1] += l.bucket[b]
	}
	l.vals = a.vals.take(n * k)
	if l.needIDs {
		l.ids = a.i32.take(n)
	}
	fill := a.i32.take(nb)
	copy(fill, l.bucket)
	for i, b := range home {
		p := fill[b]
		fill[b]++
		dst, src := l.vals[int(p)*k:int(p)*k+k], data[i*k:i*k+k]
		for c := range dst { // a few words: cheaper than a memmove call
			dst[c] = src[c]
		}
		if l.ids != nil {
			l.ids[p] = int32(i)
		}
	}
	a.i32.give(fill)
	for b := range nb {
		hi := int(l.bucket[b+1])
		for p := int(l.bucket[b]); p < hi; l.d++ {
			// Row p's group: the bucket's later rows with its key, moved
			// up behind it.
			e := p + 1
			for q := p + 1; q < hi; q++ {
				if l.sameKey(p, q) {
					if q != e {
						l.moveUp(q, e)
					}
					e++
				}
			}
			l.end[p] = int32(e)
			p = e
		}
	}
	return l.d
}

// moveUp moves row q up to position e < q, the rows between moving
// down one, so that rows keep their order and ids stay ascending within
// every group.
func (l *joinLevel) moveUp(q, e int) {
	k := l.k
	var keep [8]Value
	row := append(keep[:0], l.vals[q*k:q*k+k]...)
	copy(l.vals[(e+1)*k:(q+1)*k], l.vals[e*k:q*k])
	copy(l.vals[e*k:e*k+k], row)
	if l.ids != nil {
		id := l.ids[q]
		copy(l.ids[e+1:q+1], l.ids[e:q])
		l.ids[e] = id
	}
}

// sameKey reports whether l's rows p and q agree on l's key.
func (l *joinLevel) sameKey(p, q int) bool {
	for _, c := range l.cols {
		if l.vals[p*l.k+c] != l.vals[q*l.k+c] {
			return false
		}
	}
	return true
}

// probe narrows l to the rows agreeing with the binding on its key and
// reports whether there are any.
func (j *joinScratch) probe(l *joinLevel) bool {
	j.index(l)
	h := kernelRowHash(j.binding, l.keys, kernelSeed)
	b := h >> l.shift
	for p := l.bucket[b]; p < l.bucket[b+1]; p = l.end[p] {
		if l.keyAt(int(p), j.binding) {
			l.lo, l.hi = int(p), int(l.end[p])
			return true
		}
	}
	return false
}

// scanRows is the group size up to which an intersection looks its
// variable up in an input it binds last by scanning the input's
// previous group instead of probing an index on the input's whole row:
// a few compares cost less than a hash, and that index is never built.
// Probing instead makes BenchmarkLocalJoin/triangle about 1.5 times
// slower.
const scanRows = 32

// holds reports whether l's input holds the binding through l's step,
// narrowing l where a later step needs it.
func (j *joinScratch) holds(l *joinLevel, s int) bool {
	if l.last && l.col >= 0 && l.prev >= 0 && j.levels[l.prev].hi-j.levels[l.prev].lo <= scanRows {
		p, v := &j.levels[l.prev], j.binding[j.stepVar[s]]
		for i := p.lo; i < p.hi; i++ {
			if p.vals[i*l.k+l.col] == v {
				return true
			}
		}
		return false
	}
	return j.probe(l)
}

// keyAt reports whether l's row at position p agrees with binding on
// l's key.
func (l *joinLevel) keyAt(p int, binding []Value) bool {
	row := l.vals[p*l.k : p*l.k+l.k]
	for ki, c := range l.cols {
		if row[c] != binding[l.keys[ki]] {
			return false
		}
	}
	return true
}

// run enumerates the bindings from step s on, the steps before it
// having bound the variables they bind, and emits each.
func (j *joinScratch) run(s int) {
	if s == len(j.stepVar) {
		j.emit()
		return
	}
	ls := j.levels[j.stepAt[s]:j.stepAt[s+1]]
	if j.stepVar[s] < 0 {
		// The rows iterated: the group of the input's previous level, or,
		// where none narrowed it, the input's own rows, unindexed.
		c := &ls[0]
		vals := c.in.data
		if c.prev >= 0 {
			p := &j.levels[c.prev]
			vals = p.vals[p.lo*c.k : p.hi*c.k]
		}
		for i := 0; i < len(vals); i += c.k {
			for ki, col := range c.cols {
				j.binding[c.keys[ki]] = vals[i+col]
			}
			j.probeRest(s, ls, 0)
		}
		return
	}

	// The narrowed level with the fewest candidates is iterated; with
	// none narrowed, the one with the fewest values.
	ci, best := -1, math.MaxInt
	for li := range ls {
		if l := &ls[li]; l.prev >= 0 && j.levels[l.prev].hi-j.levels[l.prev].lo < best {
			ci, best = li, j.levels[l.prev].hi-j.levels[l.prev].lo
		}
	}
	if ci < 0 {
		for li := range ls {
			if l := &ls[li]; j.index(l) < best {
				ci, best = li, l.d
			}
		}
	}
	c := &ls[ci]
	slot := &j.binding[j.stepVar[s]]
	if c.prev < 0 {
		// Each group of the index is one value.
		for p := 0; p < len(c.vals)/c.k; p = int(c.end[p]) {
			c.lo, c.hi = p, int(c.end[p])
			*slot = c.vals[p*c.k+c.col]
			j.probeRest(s, ls, ci)
		}
		return
	}
	p := &j.levels[c.prev]
	for i := p.lo; i < p.hi; i++ {
		*slot = p.vals[i*c.k+c.col]
		// Where rows agreeing on the key can repeat the value, the value
		// is taken at its group's first (least) row only.
		if c.last || j.probe(c) && c.ids[c.lo] == p.ids[i] {
			j.probeRest(s, ls, ci)
		}
	}
}

// probeRest probes every level of step s but the iterated one, ci, and
// runs the next step when all hold the binding.
func (j *joinScratch) probeRest(s int, ls []joinLevel, ci int) {
	for li := range ls {
		if l := &ls[li]; li != ci && !j.holds(l, s) {
			return
		}
	}
	j.run(s + 1)
}

// emit appends the current binding to the output, doubling its
// capacity when full rather than taking append's gentler growth.
func (j *joinScratch) emit() {
	if n, k := len(j.out), len(j.binding); n+k > cap(j.out) {
		grown := make([]Value, n, max(2*cap(j.out), 64*k))
		copy(grown, j.out)
		j.out = grown
	}
	j.out = append(j.out, j.binding...)
}
