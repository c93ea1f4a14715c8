package hypercube

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
)

// The adaptive executor's constants.
const (
	// probeFraction is the fraction of each server's input fragment
	// routed in the metered probe round. The probe's receive vector is
	// the feedback signal; a mispredicted-skew run pays only this
	// fraction of the bad plan's load before switching.
	probeFraction = 0.15
	// maxImbalance triggers a switch when the probe's max/mean receive
	// ratio exceeds it.
	maxImbalance = 2.0
	// maxGini triggers a switch when the probe's receive Gini
	// coefficient exceeds it.
	maxGini = 0.4
)

// AdaptiveResult describes one adaptive execution.
type AdaptiveResult struct {
	Rounds int
	// Switched reports whether the run abandoned the uniform plan.
	Switched bool
	// Signal is the probe round's receive summary — the evidence the
	// decision was made on.
	Signal stats.RecvSignal
	// Reason is the human-readable decision; when the run switched it
	// is also recorded as a trace "adapt" event.
	Reason string
	// Plan is the uniform HyperCube plan the probe routed under.
	Plan *Plan
	// SkewHC is the skew-path result when Switched, nil otherwise.
	SkewHC *Result
}

// probeCount returns how many of a fragment's n tuples the probe
// routes: ceil(frac·n), so every non-empty fragment contributes.
func probeCount(n int, frac float64) int {
	if n <= 0 {
		return 0
	}
	k := int(math.Ceil(frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// probeHeavyVars returns, sorted, the variables with at least one heavy
// hitter at the sample-scaled threshold, counted by stats.Heavy over
// exactly the prefixes the probe routed, stored under probe+atom.
// Driver-side and deterministic: it reads the same committed fragments
// every replay sees.
func probeHeavyVars(c *mpc.Cluster, q hypergraph.Query, probe string, sampledThr int) []string {
	var heavy []string
	for _, v := range q.Vars() {
		var cols []stats.Column
		for _, a := range q.Atoms {
			if !a.HasVar(v) {
				continue
			}
			for i := 0; i < c.P(); i++ {
				if probed := c.Server(i).Rel(probe + a.Name); probed != nil {
					cols = append(cols, stats.Column{Rel: probed, Col: probed.MustCol(v)})
				}
			}
		}
		if len(stats.Heavy(cols, sampledThr, stats.Summed)) > 0 {
			heavy = append(heavy, v)
		}
	}
	sort.Strings(heavy)
	return heavy
}

// rows returns rows [lo, hi) of frag as a relation named name.
func rows(frag *relation.Relation, name string, lo, hi int) *relation.Relation {
	r := relation.New(name, frag.Attrs()...)
	k := frag.Arity()
	r.AppendFlat(frag.Flat()[lo*k:hi*k], hi-lo)
	return r
}

// RunAdaptive executes the skew-reactive HyperCube driver:
//
//	round 1 (adaptive:probe): each server routes the first
//	    probeFraction of its fragment under the uniform LP-optimal
//	    plan. The round is fully metered, so its receive vector is
//	    exactly the load signal a static uniform run would have
//	    produced on that prefix.
//	decision: the driver summarizes the probe's receive vector
//	    (stats.FromRecv — max, imbalance, Gini) and, if it crosses
//	    maxImbalance or maxGini, confirms by counting heavy hitters on
//	    the probed prefix at the sample-scaled threshold
//	    (stats.SampledThreshold). Both inputs are deterministic
//	    functions of the committed round, so the decision — and hence
//	    the whole run — replays bit-identically, including under chaos
//	    recovery (recovery commits the same receive vector a
//	    fault-free round would).
//	switch: the probe's partial shuffle is discarded (DeleteAll on the
//	    probe streams), an "adapt" event is traced, and RunSkewHC runs
//	    on the same cluster with the same seed and its default
//	    threshold N_max/p, the one the confirmation scales. SkewHC
//	    re-prepares and re-scatters its inputs itself; since
//	    ScatterRoundRobin is deterministic and replaces fragments by
//	    name, every fragment, round stat, and output row from this
//	    point on is bit-identical to a run that chose the skew path up
//	    front — the property the testkit adaptive differential pins.
//	no switch: round 2 (adaptive:remainder) routes the remaining
//	    tuples under the same uniform plan and the local join runs as
//	    usual; the output is the uniform HyperCube answer (as a bag —
//	    the two-round split changes only arrival order).
func RunAdaptive(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) (*AdaptiveResult, error) {
	p := c.P()
	threshold := Threshold(q, rels, p)
	pl, err := NewPlan(q, Sizes(q, rels), p, seed)
	if err != nil {
		return nil, err
	}
	scatter(c, q, rels)
	c.Note("hypercube.RunAdaptive %s probe %.0f%% shares %v", q.Name, probeFraction*100, pl.Shares)
	start := c.Metrics().Rounds()

	// Round 1: metered probe over each fragment's prefix. Every
	// fragment is first split, locally, into the prefix the probe
	// routes and the remainder, stored beside it.
	probe, rest := outName+":probe:", outName+":rest:"
	drop := func(prefix string) {
		for _, a := range q.Atoms {
			c.DeleteAll(prefix + a.Name)
		}
	}
	c.LocalStep(func(srv *mpc.Server) {
		for _, a := range q.Atoms {
			if frag := srv.Rel(a.Name); frag != nil {
				k := probeCount(frag.Len(), probeFraction)
				srv.Put(rows(frag, probe+a.Name, 0, k))
				srv.Put(rows(frag, rest+a.Name, k, frag.Len()))
			}
		}
	})
	shuffle(c, "adaptive:probe", q.Atoms, probe, outName, pl.Route)
	if err := c.Err(); err != nil {
		return nil, err // the probe round was not metered: there is nothing to judge
	}

	// Decision: probe receive skew, confirmed by emerging heavy hitters.
	probeRound := c.Metrics().Rounds() - 1
	st := c.Metrics().RoundStats()[probeRound]
	signal := stats.FromRecv(st.Recv)
	res := &AdaptiveResult{Signal: signal, Plan: pl}

	switched := false
	if signal.Skewed(maxImbalance, maxGini) {
		sampledThr := stats.SampledThreshold(threshold, probeFraction)
		if heavy := probeHeavyVars(c, q, probe, sampledThr); len(heavy) > 0 {
			switched = true
			res.Reason = fmt.Sprintf("probe skewed (%s), heavy vars [%s] at sampled threshold %d",
				signal, strings.Join(heavy, " "), sampledThr)
		} else {
			res.Reason = fmt.Sprintf("probe skewed (%s) but no heavy hitters at sampled threshold %d",
				signal, sampledThr)
		}
	} else {
		res.Reason = fmt.Sprintf("probe balanced (%s)", signal)
	}
	drop(probe)

	if switched {
		// Discard the probe's partial shuffle and hand the cluster to
		// the skew path. From here on the run is byte-for-byte a
		// static SkewHC execution.
		drop(outName + ":")
		drop(rest)
		c.Adapt(res.Reason, signal.MaxRecv, signal.Gini)
		c.Note("adaptive: switching to SkewHC after probe round %d", probeRound)
		sk, err := RunSkewHC(c, q, rels, outName, seed, threshold, LocalGeneric)
		if err != nil {
			return nil, fmt.Errorf("adaptive switch: %w", err)
		}
		res.Switched = true
		res.SkewHC = sk
		res.Rounds = c.Metrics().Rounds() - start
		return res, nil
	}

	// Round 2: route the remaining tuples under the same plan; the
	// streams accumulate onto the probe's deliveries.
	shuffle(c, "adaptive:remainder", q.Atoms, rest, outName, pl.Route)
	drop(rest)
	localJoin(c, q, outName, "", LocalGeneric)
	res.Rounds = c.Metrics().Rounds() - start
	return res, nil
}
