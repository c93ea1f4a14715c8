package testkit

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// AdaptiveAlgo runs a skew-reactive algorithm on the cluster and
// reports whether it abandoned its initial plan mid-query. The harness
// takes the algorithm as a closure (rather than importing
// internal/hypercube) so algorithm packages can wire their own
// adaptive drivers into it without an import cycle.
type AdaptiveAlgo func(c *mpc.Cluster, q hypergraph.Query, rels map[string]*relation.Relation, outName string, seed uint64) (switched bool, err error)

// SwitchChaosSpecs is the fault-schedule axis for adaptive runs. The
// flat schedules land faults on every round, the two detection rounds
// that confirm the trigger included; after=1 spares the degree round,
// and after=2 lands faults only on the switched routing round. So
// recovery is exercised both while the switch is decided and after it.
// The count that fires the trigger is a control step, not a round, and
// takes no faults.
var SwitchChaosSpecs = []string{
	"101:drop=0.15,dup=0.08",
	"202:crash=0.2,straggle=0.3,delay=6",
	"404:crash=0.3,after=1",
	"505:drop=0.15,dup=0.08,after=2",
}

// GenMispredicted generates the slide-46 HyperCube skew pathology with
// an *interleaved* planted heavy hitter: in every atom containing the
// query's first variable, every ⌈1/HeavyFrac⌉-th row binds that
// variable to the heavy value 0; light rows get distinct values and
// uniform fill elsewhere. A heavy value of one variable confines every
// relation containing it to one slab of the HyperCube grid — the
// uniform plan's worst case, and exactly the case SkewHC's share-1
// residual plans fix. Where SkewHeavy front-loads its heavy rows, the
// interleaving spreads them evenly through the file, so round-robin
// placement gives every server its share of them. A static planner with
// optimistic stats picks the uniform plan; the adaptive driver's count
// of that plan's receive vector sees the skew before any tuple moves.
//
// Every relation is a set, so the degree planted is the degree the
// engine sees: a row drawn twice is drawn again, and a heavy row draws
// its uniform fill from [0, max(Domain, Tuples)), room for all of an
// atom's heavy rows to differ. (A unary atom on the heavy variable
// holds the heavy value once.)
func GenMispredicted(q hypergraph.Query, cfg GenConfig, seed int64) map[string]*relation.Relation {
	cfg = cfg.withDefaults()
	every := max(int(1/cfg.HeavyFrac), 1)
	hv := q.Vars()[0]
	rels := make(map[string]*relation.Relation, len(q.Atoms))
	for ai, a := range q.Atoms {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(ai)*7919))
		r := relation.New(a.Name, a.Vars...)
		var set relation.RowSet
		row := make([]relation.Value, len(a.Vars))
		for i := 0; i < cfg.Tuples; i++ {
			heavy, dom := i%every == 0 && slices.Contains(a.Vars, hv), cfg.Domain
			if heavy {
				dom = max(cfg.Domain, cfg.Tuples)
			}
			for {
				for j, v := range a.Vars {
					switch {
					case v == hv && heavy:
						row[j] = 0
					case j == 0:
						row[j] = relation.Value(i + 1) // distinct, disjoint from heavy
					default:
						row[j] = relation.Value(rng.Intn(dom))
					}
				}
				if _, added := set.Add(r, row); added || len(a.Vars) == 1 {
					break
				}
			}
		}
		rels[a.Name] = r
	}
	return rels
}

// RunAdaptiveDiff pins the adaptive executor's two contracts on the
// (p, seed) matrix of cfg:
//
// On mispredicted-skew instances (GenMispredicted) the run must
// switch, match the sequential oracle, and be *bit-identical* to the
// static skew-path run on an identically seeded cluster: same fragments
// on every server, same ledger round for round (AssertSameLRC). Its
// count is one control step, drawn in the trace. AssertSameFragments
// compares every relation on every server, so this also proves the
// count leaves no residue behind.
//
// On skew-free (SkewNone) instances the run must NOT switch, must
// finish in the uniform plan's 1 metered round after its one control
// step, and must still match the oracle.
//
// static must execute the same skew path the adaptive driver switches
// to (same seed and threshold discipline).
func RunAdaptiveDiff(t *testing.T, q hypergraph.Query, cfg Config, adaptive AdaptiveAlgo, static Algo) {
	t.Helper()
	cfg = cfg.WithDefaults()
	for _, p := range cfg.Ps {
		for _, seed := range cfg.Seeds {
			p, seed := p, seed
			algSeed := uint64(seed)*0x9e3779b9 + uint64(p)
			t.Run(fmt.Sprintf("%s/mispredicted/p%d/seed%d", q.Name, p, seed), func(t *testing.T) {
				rels := GenMispredicted(q, cfg.Gen, seed)
				want := OracleJoin(q, rels)

				ca := mpc.NewCluster(p, seed)
				switched, err := adaptive(ca, q, rels, "out", algSeed)
				if err != nil {
					t.Fatalf("adaptive run failed: %v", err)
				}
				if !switched {
					t.Fatalf("adaptive run did not switch on a mispredicted-skew instance")
				}

				cs := mpc.NewCluster(p, seed)
				if err := static(cs, q, rels, "out", algSeed, nil); err != nil {
					t.Fatalf("static run failed: %v", err)
				}

				got := GatherResult(ca, "out", q.Vars())
				if !BagEqual(got, want) {
					t.Errorf("adaptive result mismatch vs oracle: %s", DiffSample(got, want))
				}
				AssertSameFragments(t, cs, ca)
				AssertSameLRC(t, cs, ca)
				assertOneCount(t, ca)
			})
			t.Run(fmt.Sprintf("%s/uniform/p%d/seed%d", q.Name, p, seed), func(t *testing.T) {
				rels := GenInstance(q, SkewNone, cfg.Gen, seed)
				want := OracleJoin(q, rels)
				c := mpc.NewCluster(p, seed)
				switched, err := adaptive(c, q, rels, "out", algSeed)
				if err != nil {
					t.Fatalf("adaptive run failed: %v", err)
				}
				if switched {
					t.Fatalf("adaptive run switched on a skew-free instance")
				}
				AssertRounds(t, c, 1)
				assertOneCount(t, c)
				got := GatherResult(c, "out", q.Vars())
				if !BagEqual(got, want) {
					t.Errorf("adaptive result mismatch vs oracle: %s", DiffSample(got, want))
				}
			})
		}
	}
}

// assertOneCount asserts that the decision's evidence is in the trace:
// one exchange of p words per server, in a control step of its own.
func assertOneCount(t *testing.T, c *mpc.Cluster) {
	t.Helper()
	var counts []trace.Event
	for _, ev := range c.Metrics().Events() {
		if ev.Kind == trace.KindExchange {
			counts = append(counts, ev)
		}
	}
	if len(counts) != 1 || counts[0].Units != 1 || counts[0].Words != int64(c.P()) || c.Metrics().ControlSteps() != 1 {
		t.Errorf("the run drew exchanges %+v and %d control steps, want one count of p words in a step of its own",
			counts, c.Metrics().ControlSteps())
	}
}

// RunAdaptiveChaos exercises the switch under fault injection: for
// every schedule in SwitchChaosSpecs (faults while the switch is
// decided and after it) it runs the adaptive algorithm on a
// mispredicted-skew instance twice — fault-free and injected — and
// asserts the injected run recovers, makes the same switch decision,
// meters identical (L, r, C), holds bit-identical fragments, and still
// matches the oracle. Recovery committing the same receive vectors is
// exactly what makes the mid-query decision replay-safe.
func RunAdaptiveChaos(t *testing.T, q hypergraph.Query, cfg Config, adaptive AdaptiveAlgo) {
	t.Helper()
	cfg = cfg.WithDefaults()
	specs := cfg.ChaosSpecs
	if len(specs) == 0 {
		specs = SwitchChaosSpecs
	}
	for _, spec := range specs {
		for _, p := range cfg.Ps {
			for _, seed := range cfg.Seeds {
				spec, p, seed := spec, p, seed
				algSeed := uint64(seed)*0x9e3779b9 + uint64(p)
				t.Run(fmt.Sprintf("%s/%s/p%d/seed%d", q.Name, spec, p, seed), func(t *testing.T) {
					rels := GenMispredicted(q, cfg.Gen, seed)
					want := OracleJoin(q, rels)

					clean := mpc.NewCluster(p, seed)
					cleanSwitched, err := adaptive(clean, q, rels, "out", algSeed)
					if err != nil {
						t.Fatalf("fault-free run failed: %v", err)
					}

					chaotic := NewChaosCluster(p, seed, spec)
					chaosSwitched, err := adaptive(chaotic, q, rels, "out", algSeed)
					if err != nil {
						t.Fatalf("chaos run failed: %v", err)
					}
					AssertRecovered(t, chaotic)
					if cleanSwitched != chaosSwitched {
						t.Fatalf("switch decision diverged under chaos: fault-free %v, chaos %v", cleanSwitched, chaosSwitched)
					}
					AssertSameLRC(t, clean, chaotic)
					AssertSameFragments(t, clean, chaotic)
					got := GatherResult(chaotic, "out", q.Vars())
					if !BagEqual(got, want) {
						t.Errorf("chaos adaptive result mismatch vs oracle: %s", DiffSample(got, want))
					}
				})
			}
		}
	}
}
