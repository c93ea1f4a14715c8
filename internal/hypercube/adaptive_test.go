package hypercube

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
	"mpcquery/internal/testkit"
)

// Adaptive-executor tests: the skew-reactive driver must switch on
// mispredicted-skew inputs and then be bit-identical to the static
// skew path, must not switch on skew-free inputs, and must keep both
// properties under fault injection.

// adaptive is RunAdaptive as a testkit.AdaptiveAlgo.
func adaptive(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) (bool, error) {
	res, err := RunAdaptive(c, q, rels, outName, seed)
	if err != nil {
		return false, err
	}
	return res.Switched, nil
}

// inRoundSkewHC is the skew path the adaptive driver switches to: SkewHC
// finding its heavy hitters in two rounds, at the default threshold.
func inRoundSkewHC(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, _ *stats.Known) error {
	_, err := RunSkewHC(c, q, rels, outName, seed, 0, LocalGeneric)
	return err
}

// adaptiveCfg shapes instances so the count's evidence is decisive at
// the default thresholds: every second row carries the planted heavy
// value, far above the threshold N_max/p. p must be large enough
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
		adaptive, inRoundSkewHC)
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
		adaptive, inRoundSkewHC)
}

// TestAdaptiveSwitchIsNotHashLuck runs the driver on the instances of
// TestAdaptiveDiff{Triangle,Star} under 64 hash seeds each. The switch
// must follow the data, not the hash function: never on skew-free
// input, where a star3 centre's summed degree is 3 and the probe's
// imbalance is hash noise, and always on mispredicted skew.
func TestAdaptiveSwitchIsNotHashLuck(t *testing.T) {
	const p, hashSeeds = 16, 64
	for _, tc := range []struct {
		q   hypergraph.Query
		gen testkit.GenConfig
	}{
		{hypergraph.Triangle(), testkit.GenConfig{Tuples: 480, HeavyFrac: 0.5}},
		{hypergraph.Star(3), testkit.GenConfig{Tuples: 240, HeavyFrac: 0.2}},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, inst := range []struct {
				name string
				rels map[string]*relation.Relation
				want bool
			}{
				{"uniform", testkit.GenInstance(tc.q, testkit.SkewNone, tc.gen, seed), false},
				{"mispredicted", testkit.GenMispredicted(tc.q, tc.gen, seed), true},
			} {
				wrong := 0
				for h := uint64(1); h <= hashSeeds; h++ {
					res, err := RunAdaptive(mpc.NewCluster(p, seed), tc.q, inst.rels, "out", h)
					if err != nil {
						t.Fatal(err)
					}
					if res.Switched != inst.want {
						wrong++
					}
				}
				if wrong > 0 {
					t.Errorf("%s/%s/seed%d: switched=%v on only %d of %d hash seeds", tc.q.Name, inst.name, seed, inst.want, hashSeeds-wrong, hashSeeds)
				}
			}
		}
	}
}

func TestAdaptiveChaosDiff(t *testing.T) {
	cfg := adaptiveCfg(16)
	cfg.Seeds = []int64{1, 2}
	testkit.RunAdaptiveChaos(t, hypergraph.Triangle(), cfg, adaptive)
}

// TestAdaptiveBeatsStaticUniformOnMispredictedSkew is the E28 claim at
// test scale: on an input whose skew a static uniform plan would eat
// in full, the adaptive run's max load is strictly lower, because the
// count that fires the switch routes no tuple under the bad plan.
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
	res, err := RunAdaptive(ca, q, rels, "out", 42)
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

// TestAdaptiveNoSwitchIsUniformRun pins the no-switch contract beyond
// the harness: a run whose count does not fire the trigger is the
// one-round uniform run, round for round and fragment for fragment, plus
// the count's one control step.
func TestAdaptiveNoSwitchIsUniformRun(t *testing.T) {
	q := hypergraph.Triangle()
	const p, seed = 4, 1
	rels := testkit.GenInstance(q, testkit.SkewNone, testkit.GenConfig{Tuples: 120}, seed)

	cu := mpc.NewCluster(p, seed)
	if _, err := Run(cu, q, rels, "out", 7, LocalGeneric); err != nil {
		t.Fatalf("uniform run failed: %v", err)
	}
	ca := mpc.NewCluster(p, seed)
	res, err := RunAdaptive(ca, q, rels, "out", 7)
	if err != nil {
		t.Fatalf("adaptive run failed: %v", err)
	}
	if res.Switched || res.Rounds != 1 {
		t.Fatalf("switched %v in %d rounds on skew-free input (%s), want the uniform plan's 1", res.Switched, res.Rounds, res.Reason)
	}
	testkit.AssertSameLRC(t, cu, ca)
	testkit.AssertSameFragments(t, cu, ca)
	if got := ca.Metrics().ControlSteps(); got != 1 {
		t.Errorf("%d control steps, want the count's 1", got)
	}
}

// TestRunAdaptiveLeavesInputsUntouched: the driver reads the caller's
// relations through views sharing their storage, so neither a switched
// nor an unswitched run may change an input's name, schema or rows.
// The inputs carry catalog-style column names, unlike the atoms'
// variables, so every atom is relabelled on the way in.
func TestRunAdaptiveLeavesInputsUntouched(t *testing.T) {
	for _, tc := range []struct {
		q        hypergraph.Query
		p        int
		rels     map[string]*relation.Relation
		switched bool
	}{
		{hypergraph.Star(3), 16, testkit.GenMispredicted(hypergraph.Star(3), testkit.GenConfig{Tuples: 240, HeavyFrac: 0.2}, 3), true},
		{hypergraph.Triangle(), 4, testkit.GenInstance(hypergraph.Triangle(), testkit.SkewNone, testkit.GenConfig{Tuples: 120}, 1), false},
	} {
		snap, snapAttrs := map[string]*relation.Relation{}, map[string][]string{}
		for name, r := range tc.rels {
			cols := make([]string, r.Arity())
			for i := range cols {
				cols[i] = fmt.Sprintf("c%d", i)
			}
			tc.rels[name] = r.Rename("catalog_"+name, cols...)
			snap[name], snapAttrs[name] = tc.rels[name].Clone(), slices.Clone(cols)
		}
		res, err := RunAdaptive(mpc.NewCluster(tc.p, 1), tc.q, tc.rels, "out", 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Switched != tc.switched {
			t.Fatalf("%s: switched = %v, want %v (%s)", tc.q.Name, res.Switched, tc.switched, res.Reason)
		}
		for name, r := range tc.rels {
			s := snap[name]
			if r.Name() != s.Name() || !slices.Equal(r.Attrs(), snapAttrs[name]) || r.Len() != s.Len() {
				t.Fatalf("%s: input %s became %s%v with %d rows, was %s%v with %d", tc.q.Name, name,
					r.Name(), r.Attrs(), r.Len(), s.Name(), snapAttrs[name], s.Len())
			}
			for i := 0; i < r.Len(); i++ {
				if !slices.Equal(r.Row(i), s.Row(i)) {
					t.Fatalf("%s: input %s row %d became %v, was %v", tc.q.Name, name, i, r.Row(i), s.Row(i))
				}
			}
		}
	}
}

// TestAdaptiveLostRound: when a round is lost, RunAdaptive returns the
// cluster's failure, and the ledger keeps the count it decided from.
func TestAdaptiveLostRound(t *testing.T) {
	q := hypergraph.Triangle()
	rels := testkit.GenInstance(q, testkit.SkewHeavy, testkit.GenConfig{Tuples: 120, HeavyFrac: 0.5}, 1)
	c := testkit.NewChaosCluster(8, 1, "1:drop=1,attempts=1")
	res, err := RunAdaptive(c, q, rels, "out", 42)
	var f *mpc.RecoveryFailure
	if res != nil || !errors.As(err, &f) || f.Round != 0 || err != c.Err() {
		t.Fatalf("RunAdaptive with its first round lost returned %+v, %v; the cluster failed with %v", res, err, c.Err())
	}
	if got := c.Metrics().ControlSteps(); got != 1 {
		t.Errorf("the failed run's ledger holds %d control steps, want the count's 1", got)
	}
}
