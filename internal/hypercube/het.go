package hypercube

import (
	"fmt"

	"mpcquery/internal/cost"
	"mpcquery/internal/fractional"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// HetPlan is a HyperCube share assignment for a cluster of machines
// with unequal capacity (arXiv 2501.08896). Instead of one grid cell
// per server, the shares are optimized for a finer virtual grid
// (several cells per unit of the fastest machine's capacity) and the
// cells are apportioned to physical servers proportionally to
// capacity — a fast machine owns more corners of the hypercube, so
// max load normalized by capacity drops below the uniform assignment.
type HetPlan struct {
	*Plan
	// Capacities is the per-server capacity profile the cells were
	// apportioned against.
	Capacities []float64
	// Owner maps each grid cell (the Plan addresses cells 0..G-1) to
	// the physical server that hosts it. Contiguous blocks, sized by
	// cost.ApportionCells, so the mapping is deterministic.
	Owner []int
}

// hetCellsPerServer is the virtual-grid refinement factor: the share
// LP plans for ~4 cells per physical server, giving the apportionment
// enough granularity to track fractional capacity ratios without
// exploding replication (each extra factor of cells costs at most one
// extra replica per unfixed dimension).
const hetCellsPerServer = 4

// NewHetPlan computes shares for the virtual grid and apportions its
// cells across the servers of the capacity profile.
func NewHetPlan(q hypergraph.Query, sizes map[string]int64, caps []float64, seed uint64) (*HetPlan, error) {
	p := len(caps)
	if p == 0 {
		return nil, fmt.Errorf("hypercube: het plan needs a capacity profile")
	}
	pv := hetCellsPerServer * p
	sh, err := fractional.OptimalShares(q, sizes, pv)
	if err != nil {
		return nil, fmt.Errorf("hypercube: het shares: %w", err)
	}
	pl := PlanWithShares(q, sh.Integer, seed)
	g := pl.GridSize()
	counts := cost.ApportionCells(g, caps)
	owner := make([]int, g)
	cell := 0
	for srv, n := range counts {
		for k := 0; k < n; k++ {
			owner[cell] = srv
			cell++
		}
	}
	return &HetPlan{Plan: pl, Capacities: append([]float64(nil), caps...), Owner: owner}, nil
}

// HetResult describes a heterogeneity-aware execution.
type HetResult struct {
	OutName string
	Rounds  int
	Plan    *HetPlan
}

// RunHet executes HyperCube with capacity-proportional cell ownership.
// The capacity profile comes from the cluster (mpc.SetCapacities);
// a cluster without one runs with uniform capacities, which degrades
// to plain HyperCube on a 4x-refined grid.
//
// Tuples are routed per virtual cell — stream "out:Atom#cell" to the
// cell's owner — and each server joins every cell it owns separately,
// unioning the results. Per-cell joins are required for correctness,
// not just bookkeeping: an atom's tuple fixes only its own variables'
// dimensions, so one server's fragments from two different cells can
// match on paper, but their true output cell belongs to a different
// server; joining cell-by-cell reproduces exactly the one-cell-per-
// server discipline of the uniform algorithm.
func RunHet(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, alg LocalAlg) (*HetResult, error) {
	p := c.P()
	caps := c.Capacities()
	if caps == nil {
		caps = make([]float64, p)
		for i := range caps {
			caps[i] = 1
		}
	}
	hp, err := NewHetPlan(q, Sizes(q, rels), caps, seed)
	if err != nil {
		return nil, err
	}
	bound := cost.BindAtoms(q, rels)
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(bound[a.Name])
	}
	trace.Annotatef(c, "hypercube.RunHet %s shares %v over %d cells (capacities %v)",
		q.Name, hp.Shares, hp.GridSize(), caps)
	start := c.Metrics().Rounds()

	atoms, routes := q.Atoms, hp.routes(q.Atoms)
	owner := hp.Owner
	c.Round("het:shuffle", func(srv *mpc.Server, out *mpc.Out) {
		streams := make([]*mpc.Stream, len(owner)) // by cell, opened on first send
		for ai, a := range atoms {
			frag := srv.Rel(a.Name)
			if frag == nil {
				continue
			}
			clear(streams)
			rt := routes[ai]
			for i := 0; i < frag.Len(); i++ {
				row := frag.Row(i)
				b := rt.Base(row)
				for _, o := range rt.Offsets {
					cell := b + o
					st := streams[cell]
					if st == nil {
						st = out.Open(fmt.Sprintf("%s:%s#%d", outName, a.Name, cell), a.Vars...)
						streams[cell] = st
					}
					st.SendRow(owner[cell], row)
				}
			}
		}
	})

	// Per-cell local joins: each server joins each of its cells'
	// fragments independently and unions the results under outName.
	vars := q.Vars()
	c.LocalStep(func(srv *mpc.Server) {
		for cell, own := range owner {
			if own != srv.ID() {
				continue
			}
			joinFragments(srv, atoms, vars, outName, fmt.Sprintf("#%d", cell), alg)
		}
	})
	return &HetResult{OutName: outName, Rounds: c.Metrics().Rounds() - start, Plan: hp}, nil
}
