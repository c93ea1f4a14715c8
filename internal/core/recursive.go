package core

import (
	"fmt"

	"mpcquery/internal/mpc"
	"mpcquery/internal/recursive"
	"mpcquery/internal/relation"
)

// RecursiveKind selects a recursive workload for ExecuteRecursive.
type RecursiveKind string

// Available recursive workloads.
const (
	RecTransitiveClosure   RecursiveKind = "tc"
	RecReachable           RecursiveKind = "reach"
	RecConnectedComponents RecursiveKind = "cc"
)

// RecursiveRequest is one recursive evaluation request: a binary edge
// relation plus, for RecReachable, the source vertex set.
type RecursiveRequest struct {
	Kind  RecursiveKind
	Edges *relation.Relation
	// Sources is required for RecReachable and ignored otherwise.
	Sources []relation.Value
}

// ExecuteRecursive runs a semi-naive fixpoint workload on the engine's
// cluster, composing with the Chaos, Trace, and Transport hooks exactly
// like Execute. Every iteration costs two metered rounds (probe +
// extend); the loop terminates when the delta relation is globally
// empty. The Execution reports Algorithm "fixpoint-<kind>" and the
// iteration count.
func (e *Engine) ExecuteRecursive(req RecursiveRequest) (*Execution, error) {
	if req.Edges == nil {
		return nil, fmt.Errorf("core: recursive request needs an edge relation")
	}
	return e.run(Algorithm("fixpoint-"+string(req.Kind)), "", func(c *mpc.Cluster, ex *Execution) (*relation.Relation, error) {
		seed := uint64(e.Seed)*2654435761 + 54321
		const outName = "out"
		var (
			res *recursive.Result
			err error
		)
		switch req.Kind {
		case RecTransitiveClosure:
			res, err = recursive.TransitiveClosure(c, req.Edges, outName, seed)
		case RecReachable:
			if len(req.Sources) == 0 {
				return nil, fmt.Errorf("core: reachability needs at least one source vertex")
			}
			res, err = recursive.Reachable(c, req.Edges, req.Sources, outName, seed)
		case RecConnectedComponents:
			res, err = recursive.ConnectedComponents(c, req.Edges, outName, seed)
		default:
			return nil, fmt.Errorf("core: unknown recursive kind %q", req.Kind)
		}
		if err != nil {
			return nil, err
		}
		ex.Iterations = res.Iterations
		return c.Gather(outName), nil
	})
}
