package hypercube

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mpcquery/internal/cost"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
	"mpcquery/internal/trace"
)

// AdaptiveConfig tunes the skew-reactive executor. The zero value
// selects the defaults documented per field.
type AdaptiveConfig struct {
	// ProbeFraction is the fraction of each server's input fragment
	// routed in the metered probe round (default 0.15). The probe's
	// receive vector is the feedback signal; a mispredicted-skew run
	// pays only ProbeFraction of the bad plan's load before switching.
	ProbeFraction float64
	// MaxImbalance triggers a switch when the probe's max/mean receive
	// ratio exceeds it (default 2.0). Negative disables the trigger;
	// zero selects the default.
	MaxImbalance float64
	// MaxGini triggers a switch when the probe's receive Gini
	// coefficient exceeds it (default 0.4). Negative disables the
	// trigger; zero selects the default.
	MaxGini float64
	// Threshold is the full-input heavy-hitter degree threshold the
	// switch confirmation (and any SkewHC run it triggers) uses;
	// ≤ 0 means N_max/p, exactly as RunSkewHC defaults.
	Threshold int
	// Alg selects the local join algorithm (default LocalGeneric).
	Alg LocalAlg
}

func (cfg AdaptiveConfig) withDefaults() AdaptiveConfig {
	if cfg.ProbeFraction <= 0 || cfg.ProbeFraction >= 1 {
		cfg.ProbeFraction = 0.15
	}
	if cfg.MaxImbalance == 0 {
		cfg.MaxImbalance = 2.0
	}
	if cfg.MaxGini == 0 {
		cfg.MaxGini = 0.4
	}
	return cfg
}

// AdaptiveResult describes one adaptive execution.
type AdaptiveResult struct {
	OutName string
	Rounds  int
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

// probeHeavyVars counts per-variable value degrees over exactly the
// prefix of each fragment the probe routed and returns (sorted) the
// variables with at least one heavy hitter at the sample-scaled
// threshold. Driver-side and deterministic: it reads the same
// committed fragments every replay sees.
func probeHeavyVars(c *mpc.Cluster, q hypergraph.Query, frac float64, sampledThr int) []string {
	var heavy []string
	for _, v := range q.Vars() {
		agg := stats.Degrees{}
		for _, a := range q.Atoms {
			if !a.HasVar(v) {
				continue
			}
			for i := 0; i < c.P(); i++ {
				frag := c.Server(i).Rel(a.Name)
				if frag == nil {
					continue
				}
				col := frag.MustCol(v)
				for j := 0; j < probeCount(frag.Len(), frac); j++ {
					agg[frag.Row(j)[col]]++
				}
			}
		}
		if len(agg.HeavyHitters(sampledThr)) > 0 {
			heavy = append(heavy, v)
		}
	}
	sort.Strings(heavy)
	return heavy
}

// RunAdaptive executes the skew-reactive HyperCube driver:
//
//	round 1 (adaptive:probe): each server routes the first
//	    ProbeFraction of its fragment under the uniform LP-optimal
//	    plan. The round is fully metered, so its receive vector is
//	    exactly the load signal a static uniform run would have
//	    produced on that prefix.
//	decision: the driver summarizes the probe's receive vector
//	    (stats.FromRecv — max, imbalance, Gini) and, if it crosses the
//	    configured thresholds, confirms by counting heavy hitters on
//	    the probed prefix at the sample-scaled threshold
//	    (stats.SampledThreshold). Both inputs are deterministic
//	    functions of the committed round, so the decision — and hence
//	    the whole run — replays bit-identically, including under chaos
//	    recovery (recovery commits the same receive vector a
//	    fault-free round would).
//	switch: the probe's partial shuffle is discarded (DeleteAll on the
//	    probe streams), an "adapt" event is traced, and RunSkewHC runs
//	    on the same cluster with the same seed and threshold. SkewHC
//	    re-prepares and re-scatters its inputs itself; since
//	    ScatterRoundRobin is deterministic and replaces fragments by
//	    name, every fragment, round stat, and output row from this
//	    point on is bit-identical to a run that chose the skew path up
//	    front — the property the testkit adaptive differential pins.
//	no switch: round 2 (adaptive:remainder) routes the remaining
//	    tuples under the same uniform plan and the local join runs as
//	    usual; the output is the uniform HyperCube answer (as a bag —
//	    the two-round split changes only arrival order).
func RunAdaptive(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, cfg AdaptiveConfig) (*AdaptiveResult, error) {
	cfg = cfg.withDefaults()
	p := c.P()

	maxN := 0
	for _, a := range q.Atoms {
		maxN = max(maxN, rels[a.Name].Len())
	}
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = maxN / p
		if threshold < 1 {
			threshold = 1
		}
	}

	pl, err := NewPlan(q, Sizes(q, rels), p, seed)
	if err != nil {
		return nil, err
	}
	bound := cost.BindAtoms(q, rels)
	for _, a := range q.Atoms {
		c.ScatterRoundRobin(bound[a.Name])
	}
	trace.Annotatef(c, "hypercube.RunAdaptive %s probe %.0f%% shares %v", q.Name, cfg.ProbeFraction*100, pl.Shares)
	start := c.Metrics().Rounds()

	// Round 1: metered probe over each fragment's prefix.
	atoms, routes := q.Atoms, pl.routes(q.Atoms)
	frac := cfg.ProbeFraction
	c.Round("adaptive:probe", func(srv *mpc.Server, out *mpc.Out) {
		shuffle(srv, out, atoms, routes, outName, func(n int) (int, int) { return 0, probeCount(n, frac) })
	})

	// Decision: probe receive skew, confirmed by emerging heavy hitters.
	probeRound := c.Metrics().Rounds() - 1
	st := c.Metrics().RoundStats()[probeRound]
	signal := stats.FromRecv(st.Recv)
	res := &AdaptiveResult{OutName: outName, Signal: signal, Plan: pl}

	switched := false
	if signal.Skewed(cfg.MaxImbalance, cfg.MaxGini) {
		sampledThr := stats.SampledThreshold(threshold, frac)
		if heavy := probeHeavyVars(c, q, frac, sampledThr); len(heavy) > 0 {
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

	if switched {
		// Discard the probe's partial shuffle and hand the cluster to
		// the skew path. From here on the run is byte-for-byte a
		// static SkewHC execution.
		for _, a := range q.Atoms {
			c.DeleteAll(outName + ":" + a.Name)
		}
		if tr := c.Tracer(); tr != nil {
			tr.Adapt(probeRound, res.Reason, signal.MaxRecv, signal.Gini)
		}
		trace.Annotatef(c, "adaptive: switching to SkewHC after probe round %d", probeRound)
		sk, err := RunSkewHC(c, q, rels, outName, seed, threshold, cfg.Alg)
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
	c.Round("adaptive:remainder", func(srv *mpc.Server, out *mpc.Out) {
		shuffle(srv, out, atoms, routes, outName, func(n int) (int, int) { return probeCount(n, frac), n })
	})
	localJoin(c, q, outName, "", cfg.Alg)
	res.Rounds = c.Metrics().Rounds() - start
	return res, nil
}
