package relation

import "sort"

// Local (single-server) join algorithms. The tutorial stresses that the
// choice of local join algorithm is independent of the parallel
// algorithm (slide 32); every parallel operator in this repository takes
// whatever arrives at a server and applies one of these.

// HashJoin computes the natural join of r and s using a radix hash
// index on the smaller input. The output schema is r's attributes
// followed by s's non-shared attributes. With no shared attributes it
// degenerates to the Cartesian product.
//
// Output order matches the historical map-based implementation exactly:
// probe rows in relation order, each matched against its key group's
// build rows in ascending row order — the bit-identity the differential
// harnesses rely on.
func HashJoin(name string, r, s *Relation) *Relation {
	shared := SharedAttrs(r, s)
	out := New(name, joinSchema(r, s)...)
	if len(shared) == 0 {
		return crossProduct(out, r, s)
	}
	// Build on the smaller side.
	build, probe := r, s
	if s.Len() < r.Len() {
		build, probe = s, r
	}
	buildCols := build.MustCols(shared)
	probeCols := probe.MustCols(shared)
	a := getArena()
	defer putArena(a)
	var ri rowIndex
	buildRowIndex(&ri, build, buildCols, a)

	// Pass 1: probe every row once, recording its key group. Probes are
	// radix-partitioned like the build side, so each burst of lookups
	// hits one cache-resident slot region; refs land at the original
	// row position, preserving output order. The match refs double as
	// the exact output size, so pass 2 emits into fully presized
	// storage with no re-probing and no append growth.
	n := probe.Len()
	checkRowCount("HashJoin probe", n)
	refs := arenaRefs(&a.refs, n)
	phash := arenaU64(&a.hashes, n)
	for i := 0; i < n; i++ {
		phash[i] = kernelRowHash(probe.Row(i), probeCols, kernelSeed)
	}
	total := 0
	if nparts := len(ri.pMask); nparts == 1 {
		for i := 0; i < n; i++ {
			g := ri.lookupRefH(phash[i], probe.Row(i), probeCols)
			refs[i] = g
			total += int(g.count)
		}
	} else {
		ordRows, ordHash, _ := partitionScatter(a, phash, nparts, ri.shift)
		for i, row := range ordRows {
			g := ri.lookupRefH(ordHash[i], probe.Row(int(row)), probeCols)
			refs[row] = g
			total += int(g.count)
		}
	}

	// Pass 2: bulk emit. Each output row is the r-row followed by s's
	// non-shared columns, exactly as makeEmitter appends them.
	extra := make([]int, 0, s.Arity())
	for i, at := range s.Attrs() {
		if r.Col(at) < 0 {
			extra = append(extra, i)
		}
	}
	out.data = make([]Value, total*out.Arity())
	data := out.data
	w := 0
	if build == r {
		for i := 0; i < n; i++ {
			g := refs[i]
			if g.count == 0 {
				continue
			}
			srow := probe.Row(i)
			for _, bj := range ri.group(g) {
				w += copy(data[w:], build.Row(int(bj)))
				for _, c := range extra {
					data[w] = srow[c]
					w++
				}
			}
		}
	} else {
		for i := 0; i < n; i++ {
			g := refs[i]
			if g.count == 0 {
				continue
			}
			rrow := probe.Row(i)
			for _, bj := range ri.group(g) {
				srow := build.Row(int(bj))
				w += copy(data[w:], rrow)
				for _, c := range extra {
					data[w] = srow[c]
					w++
				}
			}
		}
	}
	return out
}

// makeEmitter returns a function appending the natural-join combination
// of a row of r and a row of s to out.
func makeEmitter(out, r, s *Relation) func(rrow, srow []Value) {
	extra := make([]int, 0, s.Arity())
	for i, a := range s.Attrs() {
		if r.Col(a) < 0 {
			extra = append(extra, i)
		}
	}
	return func(rrow, srow []Value) {
		out.data = append(out.data, rrow...)
		for _, c := range extra {
			out.data = append(out.data, srow[c])
		}
	}
}

func crossProduct(out, r, s *Relation) *Relation {
	emit := makeEmitter(out, r, s)
	nr, ns := r.Len(), s.Len()
	out.Grow(nr * ns * out.Arity()) // exact output size: one reallocation at most
	for i := 0; i < nr; i++ {
		ri := r.Row(i)
		for j := 0; j < ns; j++ {
			emit(ri, s.Row(j))
		}
	}
	return out
}

// CrossProduct computes the Cartesian product of r and s. Shared
// attribute names are not allowed (rename first).
func CrossProduct(name string, r, s *Relation) *Relation {
	if len(SharedAttrs(r, s)) != 0 {
		panic("relation: CrossProduct with shared attributes; use HashJoin")
	}
	return crossProduct(New(name, joinSchema(r, s)...), r, s)
}

// SortMergeJoin computes the natural join by sorting both inputs on the
// shared attributes and merging. Semantics match HashJoin; it exists so
// tests can cross-validate the two implementations and so the parallel
// sort join has a local counterpart.
func SortMergeJoin(name string, r, s *Relation) *Relation {
	shared := SharedAttrs(r, s)
	out := New(name, joinSchema(r, s)...)
	if len(shared) == 0 {
		return crossProduct(out, r, s)
	}
	rs, ss := r.Clone(), s.Clone()
	rs.SortBy(shared...)
	ss.SortBy(shared...)
	rc := rs.MustCols(shared)
	sc := ss.MustCols(shared)
	cmp := func(a, b []Value) int {
		for i := range shared {
			if a[rc[i]] != b[sc[i]] {
				if a[rc[i]] < b[sc[i]] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	emit := makeEmitter(out, r, s)
	i, j := 0, 0
	nr, ns := rs.Len(), ss.Len()
	for i < nr && j < ns {
		c := cmp(rs.Row(i), ss.Row(j))
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find the run of equal keys on both sides.
			i2 := i + 1
			for i2 < nr && cmp(rs.Row(i2), ss.Row(j)) == 0 {
				i2++
			}
			j2 := j + 1
			for j2 < ns && cmp(rs.Row(i), ss.Row(j2)) == 0 {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					emit(rs.Row(a), ss.Row(b))
				}
			}
			i, j = i2, j2
		}
	}
	return out
}

// NestedLoopJoin is the O(|r|·|s|) reference implementation used only to
// validate the fast joins in tests.
func NestedLoopJoin(name string, r, s *Relation) *Relation {
	shared := SharedAttrs(r, s)
	out := New(name, joinSchema(r, s)...)
	rc := r.MustCols(shared)
	sc := s.MustCols(shared)
	emit := makeEmitter(out, r, s)
	nr, ns := r.Len(), s.Len()
	for i := 0; i < nr; i++ {
		ri := r.Row(i)
	probe:
		for j := 0; j < ns; j++ {
			sj := s.Row(j)
			for k := range shared {
				if ri[rc[k]] != sj[sc[k]] {
					continue probe
				}
			}
			emit(ri, sj)
		}
	}
	return out
}

// Semijoin returns the tuples of r that join with at least one tuple of
// s on their shared attributes (r ⋉ s). With no shared attributes it
// returns all of r if s is non-empty, else none.
func Semijoin(name string, r, s *Relation) *Relation {
	shared := SharedAttrs(r, s)
	if len(shared) == 0 {
		if s.Len() > 0 {
			out := r.Clone()
			out.name = name
			return out
		}
		return New(name, r.attrs...)
	}
	scols := s.MustCols(shared)
	cols := r.MustCols(shared)
	a := getArena()
	defer putArena(a)
	var ri rowIndex
	buildRowIndex(&ri, s, scols, a)
	return r.Select(name, func(row []Value) bool {
		return ri.lookupRef(row, cols).count > 0
	})
}

// Antijoin returns the tuples of r that join with no tuple of s.
func Antijoin(name string, r, s *Relation) *Relation {
	shared := SharedAttrs(r, s)
	if len(shared) == 0 {
		if s.Len() > 0 {
			return New(name, r.attrs...)
		}
		out := r.Clone()
		out.name = name
		return out
	}
	scols := s.MustCols(shared)
	cols := r.MustCols(shared)
	a := getArena()
	defer putArena(a)
	var ri rowIndex
	buildRowIndex(&ri, s, scols, a)
	return r.Select(name, func(row []Value) bool {
		return ri.lookupRef(row, cols).count == 0
	})
}

// Intersect returns the set intersection of relations with identical
// schemas (used by the optimized GYM semijoin phase).
func Intersect(name string, rels ...*Relation) *Relation {
	if len(rels) == 0 {
		panic("relation: Intersect of nothing")
	}
	out := rels[0].Clone()
	out.name = name
	for _, s := range rels[1:] {
		out = Semijoin(name, out, s.Project("tmp", out.attrs...))
	}
	out.Dedup()
	return out
}

// MultiJoin naturally joins the given relations left to right with
// binary hash joins. It is the baseline "iterative binary join" local
// evaluator; see GenericJoin for the worst-case-optimal alternative.
func MultiJoin(name string, rels ...*Relation) *Relation {
	if len(rels) == 0 {
		panic("relation: MultiJoin of nothing")
	}
	acc := rels[0]
	for i, s := range rels[1:] {
		nm := name
		if i < len(rels)-2 {
			nm = "tmp"
		}
		acc = HashJoin(nm, acc, s)
	}
	if acc == rels[0] {
		acc = acc.Clone()
		acc.name = name
	}
	return acc
}

// TopKByCount is a helper returning the k most frequent values of attr,
// most frequent first, ties broken by value.
func TopKByCount(r *Relation, attr string, k int) []Value {
	c := r.MustCol(attr)
	counts := make(map[Value]int)
	n := r.Len()
	for i := 0; i < n; i++ {
		counts[r.Row(i)[c]]++
	}
	vals := make([]Value, 0, len(counts))
	for v := range counts {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(a, b int) bool {
		if counts[vals[a]] != counts[vals[b]] {
			return counts[vals[a]] > counts[vals[b]]
		}
		return vals[a] < vals[b]
	})
	if len(vals) > k {
		vals = vals[:k]
	}
	return vals
}
