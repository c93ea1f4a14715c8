package relation

// Local (single-server) joins. The tutorial stresses that the choice of
// local join algorithm is independent of the parallel algorithm (slide
// 32); every parallel operator in this repository takes whatever
// arrives at a server and joins it with GenericJoin, the multiway
// kernel, or with HashJoin, the two-input radix hash join.

// HashJoin computes the natural join of r and s, as bags, using a radix
// hash index on the smaller input. The output schema is r's attributes
// followed by s's non-shared attributes. With no shared attributes it
// is the Cartesian product, every row of r meeting all of s.
//
// Output order is fixed: probe rows (the larger input, s on a tie, r in
// a product) in relation order, each matched against its key group's
// build rows in ascending row order — the bit-identity the differential
// harnesses rely on.
func HashJoin(name string, r, s *Relation) *Relation {
	shared := SharedAttrs(r, s)
	out := New(name, joinSchema(r, s)...)
	build, probe := r, s
	if s.Len() < r.Len() || len(shared) == 0 {
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
	refs := a.refs.take(n)
	phash := a.u64.take(n)
	for i := 0; i < n; i++ {
		phash[i] = kernelRowHash(probe.Row(i), probeCols, kernelSeed)
	}
	total := 0
	ordRows, ordHash, _ := partitionScatter(a, phash, len(ri.pMask), ri.shift)
	for i, h := range ordHash {
		row := i // the unpartitioned probe keeps row order
		if ordRows != nil {
			row = int(ordRows[i])
		}
		refs[row] = ri.ref(ri.lookup(h, probe.Row(row), probeCols))
		total += int(refs[row].count)
	}

	// Pass 2: bulk emit. Each output row is the r-row followed by s's
	// non-shared columns.
	extra := a.ints.take(s.Arity())[:0]
	for i, at := range s.Attrs() {
		if r.Col(at) < 0 {
			extra = append(extra, i)
		}
	}
	data := make([]Value, total*out.Arity())
	if out.Arity() == 0 {
		out.nrows = total // copies of the empty tuple: nothing to emit
	}
	w := 0
	for i := 0; i < n; i++ {
		prow := probe.Row(i)
		for _, bj := range ri.group(refs[i]) {
			rrow, srow := prow, build.Row(int(bj))
			if build == r {
				rrow, srow = srow, rrow
			}
			w += copy(data[w:], rrow)
			for _, c := range extra {
				data[w] = srow[c]
				w++
			}
		}
	}
	out.data = data
	return out
}

// CrossProduct computes the Cartesian product of r and s. Shared
// attribute names are not allowed (rename first).
func CrossProduct(name string, r, s *Relation) *Relation {
	if len(SharedAttrs(r, s)) != 0 {
		panic("relation: CrossProduct with shared attributes; use HashJoin")
	}
	return HashJoin(name, r, s)
}

// Semijoin returns the tuples of r that join with at least one tuple of
// s on their shared attributes (r ⋉ s), in r's order. With no shared
// attributes it returns all of r if s is non-empty, else none.
//
// It probes the key-only form of the radix hash index over s: one slot
// per distinct key, holding the key's first row for the collision
// check, and no row lists, since a probe asks only whether its key is
// present.
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
	buildKeyIndex(&ri, s, scols, a)
	return r.Select(name, func(row []Value) bool {
		return ri.lookup(kernelRowHash(row, cols, kernelSeed), row, cols) >= 0
	})
}

// Intersect returns the intersection of relations with identical
// schemas: the rows of the first that every other holds, in its order,
// so the intersection of sets is a set (used by the optimized GYM
// semijoin phase).
func Intersect(name string, rels ...*Relation) *Relation {
	if len(rels) == 0 {
		panic("relation: Intersect of nothing")
	}
	out := rels[0].Rename(name)
	for _, s := range rels[1:] {
		out = Semijoin(name, out, s.Project("tmp", out.attrs...))
	}
	return out
}
