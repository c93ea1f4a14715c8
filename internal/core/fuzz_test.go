package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
)

// randomCQ builds a random connected conjunctive query: binary atoms
// over a small variable pool, each new atom sharing at least one
// variable with the ones before it. Roughly half come out cyclic.
func randomCQ(rng *rand.Rand, nAtoms int) hypergraph.Query {
	pool := []string{"a", "b", "c", "d", "e"}
	atoms := make([]hypergraph.Atom, 0, nAtoms)
	used := []string{pool[rng.Intn(len(pool))]}
	for i := 0; i < nAtoms; i++ {
		v1 := used[rng.Intn(len(used))]
		v2 := pool[rng.Intn(len(pool))]
		for v2 == v1 {
			v2 = pool[rng.Intn(len(pool))]
		}
		atoms = append(atoms, hypergraph.Atom{
			Name: fmt.Sprintf("R%d", i+1),
			Vars: []string{v1, v2},
		})
		found := false
		for _, u := range used {
			if u == v2 {
				found = true
			}
		}
		if !found {
			used = append(used, v2)
		}
	}
	return hypergraph.NewQuery("fuzz", atoms...)
}

// TestEngineFuzzRandomQueries drives the auto planner over random
// conjunctive queries — cyclic and acyclic, with and without skew — and
// cross-checks every execution against the single-machine reference.
func TestEngineFuzzRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	acyclicSeen, cyclicSeen := 0, 0
	for trial := 0; trial < 25; trial++ {
		q := randomCQ(rng, 2+rng.Intn(3))
		if ok, _ := hypergraph.IsAcyclic(q); ok {
			acyclicSeen++
		} else {
			cyclicSeen++
		}
		rels := map[string]*relation.Relation{}
		dom := 4 + rng.Intn(10)
		for _, a := range q.Atoms {
			r := relation.New(a.Name, a.Vars...)
			n := rng.Intn(60)
			for i := 0; i < n; i++ {
				r.Append(relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom)))
			}
			rels[a.Name] = r.Distinct()
		}
		e := NewEngine(1+rng.Intn(8), int64(trial))
		exec, err := e.Execute(Request{Query: q, Relations: rels})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, q, err)
		}
		want := Reference(q, rels)
		if got := exec.Output; got.Len() != want.Len() || !got.EqualAsSets(want) {
			t.Fatalf("trial %d (%s via %s): got %d, want %d",
				trial, q, exec.Algorithm, exec.Output.Len(), want.Len())
		}
	}
	if acyclicSeen == 0 || cyclicSeen == 0 {
		t.Fatalf("fuzz should cover both shapes: %d acyclic, %d cyclic", acyclicSeen, cyclicSeen)
	}
}

// TestBigJoinFuzzRandomQueries forces BiGJoin over the same query
// distribution (it must handle every connected CQ).
func TestBigJoinFuzzRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 15; trial++ {
		q := randomCQ(rng, 2+rng.Intn(3))
		rels := map[string]*relation.Relation{}
		for _, a := range q.Atoms {
			r := relation.New(a.Name, a.Vars...)
			for i := 0; i < rng.Intn(50); i++ {
				r.Append(relation.Value(rng.Intn(8)), relation.Value(rng.Intn(8)))
			}
			rels[a.Name] = r.Distinct()
		}
		e := NewEngine(4, int64(trial))
		exec, err := e.Execute(Request{Query: q, Relations: rels, Algorithm: AlgBigJoin})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, q, err)
		}
		want := Reference(q, rels)
		if got := exec.Output; got.Len() != want.Len() || !got.EqualAsSets(want) {
			t.Fatalf("trial %d (%s): bigjoin got %d, want %d", trial, q, got.Len(), want.Len())
		}
	}
}
