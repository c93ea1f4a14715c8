package testkit

import (
	"fmt"
	"math/rand"

	"mpcquery/internal/relation"
)

// Fixpoint and incremental-maintenance oracles. Like the rest of the
// oracle layer these are the dumbest correct implementations — naive
// (not semi-naive) fixpoints over Go maps and recompute-from-scratch
// joins — sharing no code with internal/recursive, so a differential
// match is meaningful.

// OracleFixpoint computes the transitive closure of the binary edge
// relation by naive fixpoint: T := E; repeat T := T ∪ π(T ⋈ E) until
// nothing changes. Set semantics; the output carries edges' schema and
// is sorted.
func OracleFixpoint(name string, edges *relation.Relation) *relation.Relation {
	if edges.Arity() != 2 {
		panic(fmt.Sprintf("testkit: OracleFixpoint wants a binary relation, got arity %d", edges.Arity()))
	}
	type pair [2]relation.Value
	set := map[pair]bool{}
	for i := 0; i < edges.Len(); i++ {
		set[pair{edges.Row(i)[0], edges.Row(i)[1]}] = true
	}
	for {
		var added []pair
		for t := range set {
			for i := 0; i < edges.Len(); i++ {
				if e := edges.Row(i); t[1] == e[0] && !set[pair{t[0], e[1]}] {
					added = append(added, pair{t[0], e[1]})
				}
			}
		}
		if len(added) == 0 {
			break
		}
		for _, p := range added {
			set[p] = true
		}
	}
	out := relation.New(name, edges.Attrs()...)
	for p := range set {
		out.AppendRow(p[:])
	}
	out.Sort()
	return out
}

// OracleReachable computes the set of vertices reachable from sources
// (sources included) over the directed binary edge relation, again by
// naive fixpoint. The unary output carries edges' first attribute and
// is sorted.
func OracleReachable(name string, edges *relation.Relation, sources []relation.Value) *relation.Relation {
	if edges.Arity() != 2 {
		panic(fmt.Sprintf("testkit: OracleReachable wants a binary relation, got arity %d", edges.Arity()))
	}
	set := map[relation.Value]bool{}
	for _, s := range sources {
		set[s] = true
	}
	for {
		var added []relation.Value
		for v := range set {
			for i := 0; i < edges.Len(); i++ {
				if e := edges.Row(i); e[0] == v && !set[e[1]] {
					added = append(added, e[1])
				}
			}
		}
		if len(added) == 0 {
			break
		}
		for _, v := range added {
			set[v] = true
		}
	}
	out := relation.New(name, edges.Attrs()[0])
	for v := range set {
		out.AppendRow([]relation.Value{v})
	}
	out.Sort()
	return out
}

// OracleComponents labels every vertex of the undirected view of edges
// with the minimum vertex id of its connected component, by naive
// min-label propagation. Output schema is (v, comp), sorted.
func OracleComponents(name string, edges *relation.Relation) *relation.Relation {
	if edges.Arity() != 2 {
		panic(fmt.Sprintf("testkit: OracleComponents wants a binary relation, got arity %d", edges.Arity()))
	}
	label := map[relation.Value]relation.Value{}
	for i := 0; i < edges.Len(); i++ {
		e := edges.Row(i)
		for _, v := range e {
			if _, ok := label[v]; !ok {
				label[v] = v
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < edges.Len(); i++ {
			e := edges.Row(i)
			a, b := label[e[0]], label[e[1]]
			if a < b {
				label[e[1]] = a
				changed = true
			} else if b < a {
				label[e[0]] = b
				changed = true
			}
		}
	}
	out := relation.New(name, "v", "comp")
	for v, l := range label {
		out.AppendRow([]relation.Value{v, l})
	}
	out.Sort()
	return out
}

// SetOp is one tuple-level mutation of a named base relation, applied
// with set semantics: inserting a present tuple and deleting an absent
// one are both no-ops.
type SetOp struct {
	Rel    string
	Insert bool
	Row    []relation.Value
}

// ApplySetOps applies ops in order to copies of the bases and returns
// the updated relations (inputs are not mutated). Bases are deduped
// first — the repository-wide set-semantics convention — and the
// results are sorted. This is the oracle's view of a mutation batch.
func ApplySetOps(rels map[string]*relation.Relation, ops []SetOp) map[string]*relation.Relation {
	out := make(map[string]*relation.Relation, len(rels))
	for name, r := range rels {
		next := r.Clone()
		next.Dedup()
		// EncodeKey strings are identity keys only: rows are re-emitted
		// from the relation scan below, never ordered by key string.
		present := make(map[string]bool, next.Len())
		cols := make([]int, next.Arity())
		for i := range cols {
			cols[i] = i
		}
		for i := 0; i < next.Len(); i++ {
			present[relation.EncodeKey(next.Row(i), cols)] = true
		}
		for _, op := range ops {
			if op.Rel != name {
				continue
			}
			if len(op.Row) != next.Arity() {
				panic(fmt.Sprintf("testkit: op row arity %d against relation %s arity %d", len(op.Row), name, next.Arity()))
			}
			k := relation.EncodeKey(op.Row, cols)
			if op.Insert && !present[k] {
				present[k] = true
				next.AppendRow(op.Row)
			} else if !op.Insert && present[k] {
				present[k] = false
			}
		}
		final := relation.New(next.Name(), next.Attrs()...)
		for i := 0; i < next.Len(); i++ {
			if k := relation.EncodeKey(next.Row(i), cols); present[k] {
				final.AppendRow(next.Row(i))
				present[k] = false // emit each surviving tuple once
			}
		}
		final.Sort()
		out[name] = final
	}
	return out
}

// GenSetOps builds a randomized batch of n mutations against the given
// bases, deterministically in seed: a mix of deletes of existing rows,
// inserts of fresh rows drawn from [0, domain), and — every few ops —
// an explicit delete-then-reinsert pair of the same existing tuple, the
// case that distinguishes a net-effect fold from naive per-op replay.
func GenSetOps(rels map[string]*relation.Relation, n int, domain int64, seed int64) []SetOp {
	rng := rand.New(rand.NewSource(seed))
	var names []string
	for name := range rels {
		names = append(names, name)
	}
	// Map iteration order is random; sort for determinism in seed.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	var ops []SetOp
	for len(ops) < n {
		name := names[rng.Intn(len(names))]
		r := rels[name]
		switch {
		case len(ops)%5 == 4 && r.Len() > 0:
			// Delete-then-reinsert of one existing tuple.
			row := append([]relation.Value(nil), r.Row(rng.Intn(r.Len()))...)
			ops = append(ops,
				SetOp{Rel: name, Insert: false, Row: row},
				SetOp{Rel: name, Insert: true, Row: row})
		case rng.Intn(2) == 0 && r.Len() > 0:
			row := append([]relation.Value(nil), r.Row(rng.Intn(r.Len()))...)
			ops = append(ops, SetOp{Rel: name, Insert: false, Row: row})
		default:
			row := make([]relation.Value, r.Arity())
			for j := range row {
				row[j] = relation.Value(rng.Int63n(domain))
			}
			ops = append(ops, SetOp{Rel: name, Insert: true, Row: row})
		}
	}
	return ops[:n]
}
