package hypercube

import (
	"fmt"
	"strings"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// The adaptive executor's switch trigger, on the uniform plan's counted
// receive vector.
const (
	// maxImbalance fires the trigger when the max/mean receive ratio
	// exceeds it.
	maxImbalance = 2.0
	// maxGini fires the trigger when the receive Gini coefficient
	// exceeds it.
	maxGini = 0.4
)

// AdaptiveResult describes one adaptive execution.
type AdaptiveResult struct {
	Rounds int
	// Switched reports whether the run abandoned the uniform plan.
	Switched bool
	// Reason is the human-readable decision and the counted receive
	// vector's max, imbalance and Gini it judged, also noted in the
	// ledger.
	Reason string
}

// RunAdaptive executes the skew-reactive HyperCube driver:
//
//	count: Cluster.Loads sums what the uniform LP-optimal plan's round
//	    would deliver to each server — the round's whole receive vector,
//	    in one control step of p words per server and no data round.
//	trigger: the driver judges the vector as a round's receive vector
//	    (mpc.RoundStat's Imbalance, max/mean, and GiniRecv) and fires
//	    when it crosses maxImbalance or maxGini. Hash noise alone can
//	    cross them on skew-free input.
//	confirm: a fired trigger runs SkewHC's two detection rounds
//	    (detectHeavy) at its default threshold N_max/p.
//	switch: with a heavy hitter found, SkewHC routes by the hitters it
//	    found. Every round is then the round a static RunSkewHC meters,
//	    and every fragment is bit-identical to its fragments, the
//	    property the testkit adaptive differential pins.
//	no switch: the uniform plan's round runs (RunWithPlan), after the
//	    detection rounds when the trigger fired.
//
// The count and the detection read only the placed inputs, so the
// decision, and hence the whole run, replays bit-identically, under
// chaos recovery too.
func RunAdaptive(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) (*AdaptiveResult, error) {
	p := c.P()
	pl, err := NewPlan(q, Sizes(q, rels), p, seed)
	if err != nil {
		return nil, err
	}
	bound := scatter(c, q, rels)
	c.Note("hypercube.RunAdaptive %s shares %v", q.Name, pl.Shares)
	start := c.Metrics().Rounds()
	count := mpc.RoundStat{Recv: c.Loads("adaptive:loads", routes(q.Atoms, "", outName, pl.Route)...)}
	imbalance, gini := count.Imbalance(), count.GiniRecv()
	signal := fmt.Sprintf("max=%d imbalance=%.2f gini=%.3f", count.MaxRecv(), imbalance, gini)
	res := &AdaptiveResult{Reason: fmt.Sprintf("uniform plan balanced (%s)", signal)}
	if imbalance > maxImbalance || gini > maxGini {
		threshold := Threshold(q, bound, p)
		heavy := detectHeavy(c, q, bound, outName, seed, threshold)
		var vars []string
		for i, v := range q.Vars() {
			if len(heavy[i]) > 0 {
				vars = append(vars, v)
			}
		}
		if len(vars) == 0 {
			res.Reason = fmt.Sprintf("uniform plan skewed (%s) but no heavy hitters at threshold %d", signal, threshold)
		} else {
			res.Reason = fmt.Sprintf("uniform plan skewed (%s), heavy vars [%s] at threshold %d",
				signal, strings.Join(vars, " "), threshold)
			c.Note("adaptive: switching to SkewHC: %s", res.Reason)
			if _, err := skewShuffle(c, q, bound, heavy, outName, seed, LocalGeneric); err != nil {
				return nil, fmt.Errorf("adaptive switch: %w", err)
			}
			res.Switched = true
		}
	}
	if !res.Switched {
		c.Note("adaptive: keeping the uniform plan: %s", res.Reason)
		RunWithPlan(c, pl, outName, LocalGeneric)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	res.Rounds = c.Metrics().Rounds() - start
	return res, nil
}
