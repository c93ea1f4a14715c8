package query

import (
	"fmt"
	"slices"

	"mpcquery/internal/core"
	"mpcquery/internal/relation"
)

// BindRelations resolves each query atom to its backing relation from
// rels (keyed by catalog name), validating existence and arity — the
// execution-time counterpart of the compile-time catalog checks, since
// a service's data set can change between compile and run.
func (c *Compiled) BindRelations(rels map[string]*relation.Relation) (map[string]*relation.Relation, error) {
	bound := map[string]*relation.Relation{}
	for _, a := range c.Query.Atoms {
		src := c.RelFor[a.Name]
		r := rels[src]
		if r == nil {
			return nil, fmt.Errorf("query: relation %q is no longer registered", src)
		}
		if r.Arity() != len(a.Vars) {
			return nil, fmt.Errorf("query: relation %q now has arity %d, atom %s uses %d variables", src, r.Arity(), a.Name, len(a.Vars))
		}
		bound[a.Name] = r
	}
	return bound, nil
}

// Run executes the compiled query on the engine against rels (keyed by
// catalog relation name). alg forces a strategy for join/aggregate
// queries; core.AlgAuto (or empty) lets the planner decide. It returns
// the engine's Execution with Output in rule-head form: for joins the
// columns in head order (projected only when the head permutes the
// body's variable order), for aggregation the group-by columns plus the
// aggregate, for recursion the fixpoint output relabelled to the head
// variables.
func (c *Compiled) Run(e *core.Engine, rels map[string]*relation.Relation, alg core.Algorithm) (*core.Execution, error) {
	switch c.Kind {
	case KindJoin, KindAggregate:
		bound, err := c.BindRelations(rels)
		if err != nil {
			return nil, err
		}
		req := core.Request{Query: c.Query, Relations: bound, Algorithm: alg}
		if c.Kind == KindAggregate {
			return e.ExecuteAggregate(req, *c.Aggregate)
		}
		exec, err := e.Execute(req)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(exec.Output.Attrs(), c.Head) {
			exec.Output = exec.Output.Project(c.Query.Name, c.Head...)
		}
		return exec, nil
	case KindRecursive:
		return c.runRecursive(e, rels)
	}
	return nil, fmt.Errorf("query: cannot run compiled kind %v", c.Kind)
}

func (c *Compiled) runRecursive(e *core.Engine, rels map[string]*relation.Relation) (*core.Execution, error) {
	edges := rels[c.Recursive.EdgeRel]
	if edges == nil {
		return nil, fmt.Errorf("query: relation %q is no longer registered", c.Recursive.EdgeRel)
	}
	if edges.Arity() != 2 {
		return nil, fmt.Errorf("query: edge relation %q must be binary, has arity %d", c.Recursive.EdgeRel, edges.Arity())
	}
	req := core.RecursiveRequest{Kind: c.Recursive.Kind, Edges: edges}
	if c.Recursive.Kind == core.RecReachable {
		src := rels[c.Recursive.SourceRel]
		if src == nil {
			return nil, fmt.Errorf("query: relation %q is no longer registered", c.Recursive.SourceRel)
		}
		if src.Arity() != 1 {
			return nil, fmt.Errorf("query: source relation %q must be unary, has arity %d", c.Recursive.SourceRel, src.Arity())
		}
		if src.Len() == 0 {
			return nil, fmt.Errorf("query: source relation %q is empty: reachability needs at least one source vertex", c.Recursive.SourceRel)
		}
		for i := 0; i < src.Len(); i++ {
			req.Sources = append(req.Sources, src.Row(i)[0])
		}
	}
	exec, err := e.ExecuteRecursive(req)
	if err != nil {
		return nil, err
	}
	// Relabel the fixpoint output columns to the rule's head variables.
	exec.Output = exec.Output.Rename(c.Program.Rules[0].Head.Name, c.Head...)
	return exec, nil
}
