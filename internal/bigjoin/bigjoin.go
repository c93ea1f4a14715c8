// Package bigjoin implements a variable-at-a-time distributed multiway
// join in the style of BiGJoin (Ammar, McSherry, Salihoglu, Joglekar,
// VLDB '18) — the "multi-round multiway joins in practice" family of
// slide 97. Where HyperCube answers a k-variable query in one round by
// replicating inputs, BiGJoin spends one or two rounds per variable and
// ships *partial bindings* instead:
//
//	seed:    the first atom's tuples become the initial bindings;
//	extend:  for each further variable, bindings are co-partitioned
//	         with a proposer atom (hashed on their shared bound
//	         variables) and extended by index lookup;
//	verify:  every atom that becomes fully bound is applied as a
//	         distributed semijoin filter.
//
// Rounds grow with the number of variables, but the per-round load is
// governed by the sizes of the partial binding sets — which, unlike a
// binary join plan's intermediates, never exceed what the already-bound
// atoms jointly allow. One setup round pre-partitions each atom for
// every role the plan assigns it.
package bigjoin

import (
	"fmt"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// step is one planned extension.
type step struct {
	variable string
	// proposer is the atom index supplying candidate values.
	proposer int
	// sharedBound lists the proposer's variables already bound before
	// this step (the co-partition key); empty means a Cartesian
	// extension (the proposer is broadcast).
	sharedBound []string
	// verifiers lists atom indices that become fully bound with this
	// step and must filter the bindings.
	verifiers []int
}

// Plan is a compiled BiGJoin execution plan.
type Plan struct {
	Query    hypergraph.Query
	VarOrder []string
	SeedAtom int
	// SeedVerifiers are atoms whose variables are already fully bound by
	// the seed atom alone (e.g. parallel atoms over the same variables);
	// they filter the seed bindings before any extension.
	SeedVerifiers []int
	Steps         []step
}

// NewPlan compiles a plan for the query under the given variable order
// (defaults to q.Vars() if nil). The first atom whose variables are a
// prefix-compatible set seeds the bindings; each later variable gets a
// proposer preferring atoms that share bound variables.
func NewPlan(q hypergraph.Query, varOrder []string) (*Plan, error) {
	if varOrder == nil {
		varOrder = q.Vars()
	}
	if len(varOrder) != len(q.Vars()) {
		return nil, fmt.Errorf("bigjoin: variable order has %d vars, query has %d", len(varOrder), len(q.Vars()))
	}
	// pos/bound/in (below) are membership and position maps over
	// variable names; no code depends on their iteration order — every
	// ordered walk goes through varOrder or q.Atoms, and all tuple
	// comparisons in the executed plan are numeric on Values.
	pos := map[string]int{}
	for i, v := range varOrder {
		if _, dup := pos[v]; dup {
			return nil, fmt.Errorf("bigjoin: duplicate variable %s", v)
		}
		pos[v] = i
	}
	for _, v := range q.Vars() {
		if _, ok := pos[v]; !ok {
			return nil, fmt.Errorf("bigjoin: order misses variable %s", v)
		}
	}
	// Seed with the atom whose variables have the smallest maximum
	// position (so the seed binds a prefix-ish set).
	seed, best := -1, 1<<30
	for i, a := range q.Atoms {
		worst := 0
		for _, v := range a.Vars {
			if pos[v] > worst {
				worst = pos[v]
			}
		}
		if worst < best {
			best = worst
			seed = i
		}
	}
	bound := map[string]bool{}
	for _, v := range q.Atoms[seed].Vars {
		bound[v] = true
	}
	applied := make([]bool, len(q.Atoms))
	applied[seed] = true
	pl := &Plan{Query: q, VarOrder: varOrder, SeedAtom: seed}
	// Atoms fully bound by the seed itself must verify immediately.
	for i, a := range q.Atoms {
		if applied[i] {
			continue
		}
		all := true
		for _, av := range a.Vars {
			if !bound[av] {
				all = false
				break
			}
		}
		if all {
			pl.SeedVerifiers = append(pl.SeedVerifiers, i)
			applied[i] = true
		}
	}
	for _, v := range varOrder {
		if bound[v] {
			continue
		}
		// Proposer: an unapplied atom containing v, preferring the one
		// sharing the most bound variables.
		proposer, shared := -1, -1
		for i, a := range q.Atoms {
			if !a.HasVar(v) {
				continue
			}
			n := 0
			for _, av := range a.Vars {
				if bound[av] {
					n++
				}
			}
			if n > shared || (n == shared && proposer >= 0 && applied[proposer] && !applied[i]) {
				proposer, shared = i, n
			}
		}
		if proposer < 0 {
			return nil, fmt.Errorf("bigjoin: no atom contains variable %s", v)
		}
		st := step{variable: v, proposer: proposer}
		for _, av := range q.Atoms[proposer].Vars {
			if bound[av] {
				st.sharedBound = append(st.sharedBound, av)
			}
		}
		bound[v] = true
		applied[proposer] = true
		// Any unapplied atom that is now fully bound verifies.
		for i, a := range q.Atoms {
			if applied[i] {
				continue
			}
			all := true
			for _, av := range a.Vars {
				if !bound[av] {
					all = false
					break
				}
			}
			if all {
				st.verifiers = append(st.verifiers, i)
				applied[i] = true
			}
		}
		pl.Steps = append(pl.Steps, st)
	}
	for i, a := range q.Atoms {
		if !applied[i] {
			return nil, fmt.Errorf("bigjoin: atom %s never applied (disconnected query?)", a.Name)
		}
	}
	return pl, nil
}

// Rounds returns the number of communication rounds the plan needs:
// one setup round, one extend round per step, and one verify round per
// verifier (including seed verifiers).
func (pl *Plan) Rounds() int {
	r := 1 + len(pl.Steps) + len(pl.SeedVerifiers)
	for _, st := range pl.Steps {
		r += len(st.verifiers)
	}
	return r
}

// Result describes an execution.
type Result struct {
	Rounds int
	// MaxBindings is the largest total binding-set size shipped by any
	// extend round (the quantity BiGJoin's batching bounds).
	MaxBindings int
}

// Run executes the plan. Relations are sets keyed by atom name, columns
// matched positionally to atom variables, so each answer row is left
// once. The result (schema VarOrder) is left distributed under outName.
func Run(c *mpc.Cluster, pl *Plan, rels map[string]*relation.Relation, outName string, seed uint64) *Result {
	q := pl.Query
	// Relabel inputs to variable schemas and scatter (placement is free).
	bound := cost.BindAtoms(q, rels)
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(bound[a.Name])
	}
	c.Note("bigjoin.Run %s var order %v", q.Name, pl.VarOrder)
	start := c.Metrics().Rounds()

	// Setup round: partition each proposer by its sharedBound key and
	// each verifier by its full variable set, under step-local names.
	steps := pl.Steps
	seedVerifiers := pl.SeedVerifiers
	var sends []mpc.Send
	for _, vi := range seedVerifiers {
		va := q.Atoms[vi]
		sends = append(sends, mpc.Send{From: va.Name, To: fmt.Sprintf("%s:sver%d", outName, vi), Policy: mpc.Hash(seed, va.Vars...)})
	}
	for si, st := range steps {
		// A Cartesian extension (no shared bound variable) broadcasts
		// its proposer.
		prop := mpc.Broadcast()
		if len(st.sharedBound) > 0 {
			prop = mpc.Hash(seed, st.sharedBound...)
		}
		sends = append(sends, mpc.Send{From: q.Atoms[st.proposer].Name, To: fmt.Sprintf("%s:prop%d", outName, si), Policy: prop})
		for _, vi := range st.verifiers {
			// Hashed on the verifier's variables, as this verifier's
			// round below hashes the bindings.
			va := q.Atoms[vi]
			sends = append(sends, mpc.Send{From: va.Name, To: fmt.Sprintf("%s:ver%d_%d", outName, si, vi), Policy: mpc.Hash(seed, va.Vars...)})
		}
	}
	c.Shuffle("bigjoin:setup", sends...)

	// Seed bindings: the seed atom's local fragments, projected to its
	// variable set in VarOrder-consistent order.
	boundVars := orderedSubset(pl.VarOrder, q.Atoms[pl.SeedAtom].Vars)
	bindName := outName // once every variable is bound, the bindings are the answer
	seedAtom := q.Atoms[pl.SeedAtom]
	bv := boundVars
	c.LocalStep(func(srv *mpc.Server) {
		frag := srv.RelOrEmpty(seedAtom.Name, seedAtom.Vars...)
		srv.Put(frag.Project(bindName, bv...))
	})

	maxBind := c.TotalLen(bindName)
	// Seed-verifier rounds: filter the seed bindings through each atom
	// that the seed already fully binds.
	for _, vi := range seedVerifiers {
		va := q.Atoms[vi]
		bvNow := boundVars
		c.Shuffle(fmt.Sprintf("bigjoin:sverify%d", vi), mpc.Send{From: bindName, To: bindName + ":v", Policy: mpc.Hash(seed, va.Vars...)})
		c.LocalStep(func(srv *mpc.Server) {
			bindings := srv.RelOrEmpty(bindName+":v", bvNow...)
			verRel := srv.RelOrEmpty(fmt.Sprintf("%s:sver%d", outName, vi), va.Vars...)
			srv.Put(relation.Semijoin(bindName, bindings, verRel.Rename("v")))
			srv.Delete(fmt.Sprintf("%s:sver%d", outName, vi))
			srv.Delete(bindName + ":v")
		})
	}
	for si, st := range steps {
		newBound := append(append([]string(nil), boundVars...), st.variable)
		newBound = orderedSubset(pl.VarOrder, newBound)
		// Extend round: ship bindings to the proposer's partition.
		shared := st.sharedBound
		prevBound := boundVars
		c.Round(fmt.Sprintf("bigjoin:extend%d", si), func(srv *mpc.Server, out *mpc.Out) {
			frag := srv.Rel(bindName)
			if frag == nil {
				return
			}
			stream := out.Open(bindName+":x", prevBound...)
			if len(shared) == 0 {
				// Proposer was broadcast: bindings stay put (send to self
				// keeps the metering honest at zero extra cost... ship to
				// self so the round structure is uniform).
				for i := 0; i < frag.Len(); i++ {
					stream.SendRow(srv.ID(), frag.Row(i))
				}
			} else {
				stream.SendByHash(frag, frag.MustCols(shared), mpc.HashSeed(seed, shared...))
			}
			srv.Delete(bindName)
		})
		propName := fmt.Sprintf("%s:prop%d", outName, si)
		propAtom := q.Atoms[st.proposer]
		nb := newBound
		// A proposer binding more than this step's variable (a Cartesian
		// extension: none of its variables is bound yet) has the others
		// projected away, which repeats bindings; drop the repeats so
		// each binding is extended once and no answer row appears twice.
		repeats := len(orderedSubset(nb, propAtom.Vars)) < len(propAtom.Vars)
		c.LocalStep(func(srv *mpc.Server) {
			bindings := srv.RelOrEmpty(bindName+":x", prevBound...)
			prop := srv.RelOrEmpty(propName, propAtom.Vars...)
			joined := relation.HashJoin("j", bindings.Rename("b"), prop.Rename("p")).Project(bindName, nb...)
			if repeats {
				joined.Dedup()
			}
			srv.Put(joined)
			srv.Delete(bindName + ":x")
			srv.Delete(propName)
		})
		maxBind = max(maxBind, c.TotalLen(bindName))
		// Verify rounds: filter the bindings through each newly-bound
		// atom, one co-partitioned semijoin round per verifier.
		for _, vi := range st.verifiers {
			va := q.Atoms[vi]
			c.Shuffle(fmt.Sprintf("bigjoin:verify%d_%d", si, vi), mpc.Send{From: bindName, To: bindName + ":v", Policy: mpc.Hash(seed, va.Vars...)})
			c.LocalStep(func(srv *mpc.Server) {
				bindings := srv.RelOrEmpty(bindName+":v", nb...)
				verRel := srv.RelOrEmpty(fmt.Sprintf("%s:ver%d_%d", outName, si, vi), va.Vars...)
				srv.Put(relation.Semijoin(bindName, bindings, verRel.Rename("v")))
				srv.Delete(fmt.Sprintf("%s:ver%d_%d", outName, si, vi))
				srv.Delete(bindName + ":v")
			})
		}
		boundVars = newBound
	}
	return &Result{
		Rounds:      c.Metrics().Rounds() - start,
		MaxBindings: maxBind,
	}
}

// orderedSubset returns the members of set ordered as in order.
func orderedSubset(order []string, set []string) []string {
	in := map[string]bool{}
	for _, v := range set {
		in[v] = true
	}
	var out []string
	for _, v := range order {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}
