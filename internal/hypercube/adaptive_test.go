package hypercube

import (
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
)

// Adaptive-executor tests: the skew-reactive driver must switch on
// mispredicted-skew inputs and then be bit-identical to the static
// skew path, must not switch on skew-free inputs, and must keep both
// properties under fault injection.

func adaptiveAlgo(cfg AdaptiveConfig) testkit.AdaptiveAlgo {
	return func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) (bool, error) {
		res, err := RunAdaptive(c, q, rels, outName, seed, cfg)
		if err != nil {
			return false, err
		}
		return res.Switched, nil
	}
}

// adaptiveCfg shapes instances so the probe's evidence is decisive at
// the default thresholds: every second row carries the planted heavy
// value, so a 15% prefix of any fragment already shows the hitter at
// several times the sample-scaled threshold. p must be large enough
// that the heavy slab (p/share_v servers) is a small fraction of the
// cluster — max/mean is bounded by the slab ratio, so tiny clusters
// cannot show imbalance 2 on a single heavy variable by construction.
func adaptiveCfg(ps ...int) testkit.Config {
	return testkit.Config{
		Ps:    ps,
		Seeds: []int64{1, 2, 3},
		Gen:   testkit.GenConfig{Tuples: 480, HeavyFrac: 0.5},
	}
}

func TestAdaptiveDiffTriangle(t *testing.T) {
	testkit.RunAdaptiveDiff(t, hypergraph.Triangle(), adaptiveCfg(16),
		adaptiveAlgo(AdaptiveConfig{}), algo("skewhc"))
}

// TestAdaptiveDiffStar covers the sharpest mispredicted case: the
// star's center variable takes the whole share budget, so its heavy
// value confines every relation to a single server under the uniform
// plan. The heavy fraction is kept low (20%) because the star's heavy
// output is the cube of the heavy row count.
func TestAdaptiveDiffStar(t *testing.T) {
	cfg := adaptiveCfg(16)
	cfg.Gen = testkit.GenConfig{Tuples: 240, HeavyFrac: 0.2}
	testkit.RunAdaptiveDiff(t, hypergraph.Star(3), cfg,
		adaptiveAlgo(AdaptiveConfig{}), algo("skewhc"))
}

func TestAdaptiveChaosDiff(t *testing.T) {
	cfg := adaptiveCfg(16)
	cfg.Seeds = []int64{1, 2}
	testkit.RunAdaptiveChaos(t, hypergraph.Triangle(), cfg, adaptiveAlgo(AdaptiveConfig{}))
}

// TestAdaptiveBeatsStaticUniformOnMispredictedSkew is the E28 claim at
// test scale: on an input whose skew a static uniform plan would eat
// in full, the adaptive run's max load — probe round included — is
// strictly lower, because only the ProbeFraction prefix is routed
// under the bad plan before the switch.
func TestAdaptiveBeatsStaticUniformOnMispredictedSkew(t *testing.T) {
	q := hypergraph.Star(3)
	const p, seed = 16, 3
	rels := testkit.GenMispredicted(q, testkit.GenConfig{Tuples: 240, HeavyFrac: 0.2}, seed)

	cu := mpc.NewCluster(p, seed)
	if _, err := Run(cu, q, rels, "out", 42, LocalGeneric); err != nil {
		t.Fatalf("uniform run failed: %v", err)
	}
	uniformL := cu.Metrics().MaxLoad()

	ca := mpc.NewCluster(p, seed)
	res, err := RunAdaptive(ca, q, rels, "out", 42, AdaptiveConfig{})
	if err != nil {
		t.Fatalf("adaptive run failed: %v", err)
	}
	if !res.Switched {
		t.Fatalf("adaptive run did not switch: %s", res.Reason)
	}
	adaptiveL := ca.Metrics().MaxLoad()
	if adaptiveL >= uniformL {
		t.Errorf("adaptive L = %d not below static uniform L = %d (%s)", adaptiveL, uniformL, res.Reason)
	}
}

// TestAdaptiveNoSwitchMatchesUniformBag pins the no-switch contract
// beyond the harness: the probe+remainder split must deliver exactly
// the tuples the one-round uniform shuffle delivers (same total
// communication), only spread over two rounds.
func TestAdaptiveNoSwitchMatchesUniformBag(t *testing.T) {
	q := hypergraph.Triangle()
	const p, seed = 4, 1
	rels := testkit.GenInstance(q, testkit.SkewNone, testkit.GenConfig{Tuples: 120}, seed)

	cu := mpc.NewCluster(p, seed)
	if _, err := Run(cu, q, rels, "out", 7, LocalGeneric); err != nil {
		t.Fatalf("uniform run failed: %v", err)
	}
	ca := mpc.NewCluster(p, seed)
	res, err := RunAdaptive(ca, q, rels, "out", 7, AdaptiveConfig{})
	if err != nil {
		t.Fatalf("adaptive run failed: %v", err)
	}
	if res.Switched {
		t.Fatalf("switched on skew-free input: %s", res.Reason)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
	if got, want := ca.Metrics().TotalComm(), cu.Metrics().TotalComm(); got != want {
		t.Errorf("total communication %d, uniform one-round run %d", got, want)
	}
	got := testkit.GatherResult(ca, "out", q.Vars())
	want := testkit.GatherResult(cu, "out", q.Vars())
	if !testkit.BagEqual(got, want) {
		t.Errorf("no-switch output differs from uniform run: %s", testkit.DiffSample(got, want))
	}
}

// TestProbeCount pins the probe sizing at its edges.
func TestProbeCount(t *testing.T) {
	tests := []struct {
		n    int
		frac float64
		want int
	}{
		{0, 0.15, 0},
		{1, 0.15, 1},  // non-empty fragments always contribute
		{10, 0.15, 2}, // ceil
		{100, 0.15, 15},
		{3, 0.9, 3},
		{5, 1, 5},
	}
	for _, tc := range tests {
		if got := probeCount(tc.n, tc.frac); got != tc.want {
			t.Errorf("probeCount(%d, %g) = %d, want %d", tc.n, tc.frac, got, tc.want)
		}
	}
}
