package testkit

import (
	"fmt"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/stats"
)

// Algo adapts one parallel join algorithm to the differential runner:
// execute the query on the cluster and leave the result (schema ⊇
// q.Vars(), any column order) distributed under outName. Relations are
// keyed by atom name, columns positional to atom variables — the same
// contract as core.Request — and known is the heavy hitters the caller
// counted, or nil (cost.RunFunc's argument). The walls pass nil, so a
// skew algorithm counts for itself.
type Algo func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64, known *stats.Known) error

// Config is one differential sweep specification. The zero value of
// each field falls back to the DefaultConfig value.
type Config struct {
	// Ps are the cluster sizes to sweep (≥ 3 values in DefaultConfig).
	Ps []int
	// Seeds drive the workload generator (≥ 5 values in DefaultConfig).
	Seeds []int64
	// Skews are the input distributions to sweep; DefaultConfig includes
	// skew-free, uniform, Zipf and planted-heavy-hitter inputs.
	Skews []Skew
	// Gen shapes the generated relations.
	Gen GenConfig
	// Rounds, when non-nil, returns the exact number of communication
	// rounds the algorithm must use for q at cluster size p; asserted
	// against the metered r on every instance.
	Rounds func(q hypergraph.Query, p int) int
	// LoadFactor, when > 0, asserts on SkewNone instances that the
	// metered L ≤ LoadFactor·IN/p^{1/τ*} + LoadSlack. The factor is the
	// caller-documented constant covering hashing variance and integer
	// share rounding.
	LoadFactor float64
	// LoadSlack absorbs small-input quantization (default 16 tuples).
	LoadSlack int64
	// ChaosSpecs is the fault-schedule axis of the chaos sweeps
	// (RunChaosDiff, SweepChaos), in chaos.Parse's compact form;
	// DefaultChaosSpecs when empty. Ignored by the fault-free sweeps.
	ChaosSpecs []string
	// MustFault makes RunChaosDiff and RunChaosDiffTCP assert that every
	// case's schedule injected at least one fault (AssertFaulted).
	MustFault bool
}

// DefaultConfig returns the standard sweep: cluster sizes {2, 4, 8},
// five seeds, and all four input distributions.
func DefaultConfig() Config {
	return Config{
		Ps:        []int{2, 4, 8},
		Seeds:     []int64{1, 2, 3, 4, 5},
		Skews:     AllSkews,
		LoadSlack: 16,
	}
}

func (cfg Config) WithDefaults() Config {
	def := DefaultConfig()
	if len(cfg.Ps) == 0 {
		cfg.Ps = def.Ps
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = def.Seeds
	}
	if len(cfg.Skews) == 0 {
		cfg.Skews = def.Skews
	}
	if cfg.LoadSlack == 0 {
		cfg.LoadSlack = def.LoadSlack
	}
	return cfg
}

// GatherResult collects the union of outName's fragments projected to
// attrs, tolerating servers that hold nothing (an algorithm may leave
// an empty cluster-wide result).
func GatherResult(c *mpc.Cluster, outName string, attrs []string) *relation.Relation {
	out := relation.New(outName, attrs...)
	for i := 0; i < c.P(); i++ {
		if f := c.Server(i).Rel(outName); f != nil {
			out.AppendAll(f.Project(outName, attrs...))
		}
	}
	return out
}

// InputSize sums the cardinalities of the query's input relations (IN).
func InputSize(q hypergraph.Query, rels map[string]*relation.Relation) int64 {
	var in int64
	for _, a := range q.Atoms {
		in += int64(rels[a.Name].Len())
	}
	return in
}

// RunDiff executes the full differential sweep for one algorithm on one
// query: for every (skew, p, seed) it generates an instance of sets
// (GenInstance), runs the algorithm on a fresh cluster, and asserts
//
//  1. bag-equality of the undeduplicated gathered result against the
//     sequential oracle (set semantics, the repository-wide convention);
//  2. the exact round count, when cfg.Rounds is set;
//  3. the L ≤ LoadFactor·IN/p^{1/τ*} + LoadSlack bound on skew-free
//     (SkewNone) instances, when cfg.LoadFactor is set.
func RunDiff(t *testing.T, q hypergraph.Query, cfg Config, alg Algo) {
	t.Helper()
	cfg = cfg.WithDefaults()
	for _, skew := range cfg.Skews {
		for _, p := range cfg.Ps {
			for _, seed := range cfg.Seeds {
				skew, p, seed := skew, p, seed
				t.Run(fmt.Sprintf("%s/%s/p%d/seed%d", q.Name, skew, p, seed), func(t *testing.T) {
					rels := GenInstance(q, skew, cfg.Gen, seed)
					want := OracleJoin(q, rels)
					c := mpc.NewCluster(p, seed)
					if err := alg(c, q, rels, "out", uint64(seed)*0x9e3779b9+uint64(p), nil); err != nil {
						t.Fatalf("algorithm failed: %v", err)
					}
					got := GatherResult(c, "out", q.Vars())
					if !BagEqual(got, want) {
						t.Errorf("differential mismatch vs oracle: %s", DiffSample(got, want))
					}
					if cfg.Rounds != nil {
						AssertRounds(t, c, cfg.Rounds(q, p))
					}
					if cfg.LoadFactor > 0 && skew == SkewNone {
						AssertLoadBound(t, c, q, InputSize(q, rels), p, cfg.LoadFactor, cfg.LoadSlack)
					}
				})
			}
		}
	}
}

// Sweep iterates the (skew, p, seed) matrix of cfg as named subtests
// without imposing the conjunctive-query harness — the entry point for
// algorithms whose correctness statement is not "equals OracleJoin"
// (sorting, aggregation, matrix multiplication).
func Sweep(t *testing.T, cfg Config, fn func(t *testing.T, p int, seed int64, skew Skew)) {
	t.Helper()
	cfg = cfg.WithDefaults()
	for _, skew := range cfg.Skews {
		for _, p := range cfg.Ps {
			for _, seed := range cfg.Seeds {
				skew, p, seed := skew, p, seed
				t.Run(fmt.Sprintf("%s/p%d/seed%d", skew, p, seed), func(t *testing.T) {
					fn(t, p, seed, skew)
				})
			}
		}
	}
}
