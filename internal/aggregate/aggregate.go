// Package aggregate implements distributed grouping and aggregation in
// the MPC model — the "queries are typically executed in multiple
// rounds" workload of slide 52 (GROUP BY cKey, month SUM(price)).
//
// The algorithm is the standard one-round combiner pattern: every
// server pre-aggregates its local fragment (the combiner), the partial
// aggregates are hash-partitioned by group key, and each server
// finalizes its groups locally. Pre-aggregation makes the communication
// proportional to the number of *distinct groups* per server rather
// than the number of input tuples, which is what makes grouped
// aggregation cheap in practice.
package aggregate

import (
	"fmt"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// Spec describes one distributed aggregation.
type Spec struct {
	// Rel is the name of the distributed input relation.
	Rel string
	// GroupBy lists the grouping attributes.
	GroupBy []string
	// Fn is the aggregate function.
	Fn relation.AggFunc
	// AggAttr is the aggregated attribute (ignored for Count).
	AggAttr string
	// OutAttr names the aggregate output column.
	OutAttr string
	// OutRel names the distributed output relation.
	OutRel string
	// Seed drives the group-key hash.
	Seed uint64
	// NoCombiner disables local pre-aggregation (for ablations: the
	// shuffle then carries every input tuple).
	NoCombiner bool
}

// Result reports a distributed aggregation.
type Result struct {
	OutRel string
	Rounds int
	// Groups is the total number of output groups.
	Groups int
}

// decomposable reports whether fn can be pre-aggregated with itself as
// the merge function. Sum/Min/Max merge with themselves; Count merges
// with Sum.
func mergeFn(fn relation.AggFunc) relation.AggFunc {
	if fn == relation.Count {
		return relation.Sum
	}
	return fn
}

// Run executes the aggregation in one MPC round.
func Run(c *mpc.Cluster, spec Spec) (*Result, error) {
	if len(spec.GroupBy) == 0 {
		return nil, fmt.Errorf("aggregate: no group-by attributes")
	}
	if spec.OutRel == "" || spec.Rel == "" {
		return nil, fmt.Errorf("aggregate: missing relation names")
	}
	outAttrs := append(append([]string(nil), spec.GroupBy...), spec.OutAttr)
	trace.Annotatef(c, "aggregate.Run %s group-by %v", spec.Rel, spec.GroupBy)
	start := c.Metrics().Rounds()
	gb := spec.GroupBy
	c.Round("aggregate:"+spec.OutRel, func(srv *mpc.Server, out *mpc.Out) {
		frag := srv.Rel(spec.Rel)
		if frag == nil || frag.Len() == 0 {
			return
		}
		var partial *relation.Relation
		if spec.NoCombiner {
			// Ship raw tuples re-shaped to (group..., value): for Count
			// the value column is a constant 1.
			partial = relation.New("p", outAttrs...)
			gcols := frag.MustCols(gb)
			acol := -1
			if spec.Fn != relation.Count {
				acol = frag.MustCol(spec.AggAttr)
			}
			row := make([]relation.Value, len(outAttrs))
			for i := 0; i < frag.Len(); i++ {
				src := frag.Row(i)
				for j, cix := range gcols {
					row[j] = src[cix]
				}
				if acol >= 0 {
					row[len(row)-1] = src[acol]
				} else {
					row[len(row)-1] = 1
				}
				partial.AppendRow(row)
			}
		} else {
			partial = relation.GroupBy("p", frag, gb, spec.Fn, spec.AggAttr, spec.OutAttr)
		}
		st := out.Open(spec.OutRel+":partial", outAttrs...)
		gcols := make([]int, len(gb))
		for i := range gb {
			gcols[i] = i // partial's group columns are leading
		}
		st.SendByHash(partial, gcols, spec.Seed)
	})
	merge := mergeFn(spec.Fn)
	if spec.NoCombiner {
		merge = spec.Fn
		if spec.Fn == relation.Count {
			merge = relation.Sum
		}
	}
	c.LocalStep(func(srv *mpc.Server) {
		frag := srv.RelOrEmpty(spec.OutRel+":partial", outAttrs...)
		srv.Put(relation.GroupBy(spec.OutRel, frag, gb, merge, spec.OutAttr, spec.OutAttr))
		srv.Delete(spec.OutRel + ":partial")
	})
	return &Result{
		OutRel: spec.OutRel,
		Rounds: c.Metrics().Rounds() - start,
		Groups: c.TotalLen(spec.OutRel),
	}, nil
}

// Local computes the same aggregation on a gathered relation — the
// single-machine reference for verification.
func Local(rel *relation.Relation, spec Spec) *relation.Relation {
	return relation.GroupBy(spec.OutRel, rel, spec.GroupBy, spec.Fn, spec.AggAttr, spec.OutAttr)
}
