package testkit

import (
	"fmt"
	"slices"
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
)

// DefaultChaosSpecs are the fault schedules of the standard chaos
// sweep: a drop/duplicate schedule, a crash/straggler schedule, and a
// mixed one. All use the default bounded persistence, so every round
// is guaranteed to recover within the default replay budget.
var DefaultChaosSpecs = []string{
	"101:drop=0.15,dup=0.08",
	"202:crash=0.2,straggle=0.3,delay=6",
	"303:drop=0.1,dup=0.05,crash=0.1",
}

// FixpointChaosSpecs extends the standard sweep for iterative
// workloads with after= schedules: no fault fires before metered round
// index N, so recovery is exercised *between* fixpoint iterations (the
// kernel meters one round per iteration and its seeding is unmetered,
// so after=N lands the first fault no earlier than iteration N+1:
// iterations 4, 3 and 2 below) rather than only at the first rounds
// the flat specs tend to hit first. The shortest fixpoint of the chaos
// sweeps runs 5 iterations, so every schedule faults inside it.
var FixpointChaosSpecs = append(append([]string(nil), DefaultChaosSpecs...),
	"404:crash=0.35,after=3",
	"505:drop=0.12,dup=0.06,after=2",
	"606:crash=0.25,straggle=0.3,delay=5,after=1",
)

// OneRoundChaosSpecs is DefaultChaosSpecs for algorithms that meter a
// single round: on 2 servers the drop/duplicate schedule's seed 101
// first faults round 2, so it is re-seeded to 102, which faults round 0.
var OneRoundChaosSpecs = append([]string{"102:drop=0.15,dup=0.08"}, DefaultChaosSpecs[1:]...)

// ChaosSkews is the reduced input-distribution axis of the chaos
// sweeps: the extremes of the skew matrix. Fault injection multiplies
// the sweep by the schedule axis, so the chaos matrix trades skew
// coverage (owned by the fault-free differential sweep) for schedule
// coverage.
var ChaosSkews = []Skew{SkewNone, SkewZipf}

// withChaosDefaults reduces the sweep matrix for fault-injected runs
// and fills the schedule axis.
func (cfg Config) withChaosDefaults() Config {
	if len(cfg.ChaosSpecs) == 0 {
		cfg.ChaosSpecs = DefaultChaosSpecs
	}
	if len(cfg.Skews) == 0 {
		cfg.Skews = ChaosSkews
	}
	if len(cfg.Ps) == 0 {
		cfg.Ps = []int{2, 5}
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1, 2}
	}
	return cfg.WithDefaults()
}

// NewChaosCluster builds a cluster with the fault schedule parsed from
// spec attached. Spec syntax is chaos.Parse's compact form.
func NewChaosCluster(p int, seed int64, spec string) *mpc.Cluster {
	c := mpc.NewCluster(p, seed)
	c.SetFaultInjector(chaos.MustParseSchedule(spec))
	return c
}

// AssertRecovered fails the test unless every round of the
// fault-injected cluster committed: no round failure, and a
// recovery ledger present on each round.
func AssertRecovered(t *testing.T, c *mpc.Cluster) {
	t.Helper()
	if err := c.Err(); err != nil {
		t.Fatalf("cluster failed recovery: %v", err)
	}
	for i, st := range c.Metrics().RoundStats() {
		if st.Chaos == nil {
			t.Fatalf("round %d (%s) has no recovery ledger despite fault injection", i, st.Name)
		}
	}
}

// AssertFaulted fails the test unless the schedule injected at least
// one fault into the cluster's rounds — a dropped, duplicated or
// redelivered fragment, a crash, or a straggler — so that a chaos case
// cannot pass by never being hit.
func AssertFaulted(t *testing.T, c *mpc.Cluster) {
	t.Helper()
	for _, st := range c.Metrics().RoundStats() {
		if cs := st.Chaos; cs != nil && (cs.Dropped+cs.Duplicated+cs.Redelivered > 0 || cs.Crashes() > 0 || cs.MaxStraggle() > 0) {
			return
		}
	}
	t.Fatalf("the fault schedule injected nothing into %d rounds", c.Metrics().Rounds())
}

// AssertSameLRC asserts that two clusters metered identical ledgers:
// per round, per-server Recv and RecvWords, hence equal (L, r, C), and
// Self and every per-stream send and receive entry. This is the
// recovery guarantee: a fault-injected run that recovers is
// indistinguishable from the fault-free run in the model's cost
// metrics. The backend differentials use it to pin local vs TCP.
func AssertSameLRC(t *testing.T, clean, chaotic *mpc.Cluster) {
	t.Helper()
	cs, xs := clean.Metrics().RoundStats(), chaotic.Metrics().RoundStats()
	if len(cs) != len(xs) {
		t.Fatalf("round counts differ: fault-free %d, chaos %d", len(cs), len(xs))
	}
	for i := range cs {
		a, b := &cs[i], &xs[i]
		if a.Name != b.Name {
			t.Fatalf("round %d name differs: %q vs %q", i, a.Name, b.Name)
		}
		for d := range a.Recv {
			if a.Recv[d] != b.Recv[d] || a.RecvWords[d] != b.RecvWords[d] {
				t.Fatalf("round %q server %d: fault-free (%d,%d), chaos (%d,%d)",
					a.Name, d, a.Recv[d], a.RecvWords[d], b.Recv[d], b.RecvWords[d])
			}
		}
		if a.Self != b.Self {
			t.Fatalf("round %q: fault-free Self %d, chaos %d", a.Name, a.Self, b.Self)
		}
		if !slices.Equal(a.StreamSends, b.StreamSends) || !slices.Equal(a.StreamRecvs, b.StreamRecvs) {
			t.Fatalf("round %q: per-stream ledgers differ:\n  fault-free sends %v recvs %v\n  chaos      sends %v recvs %v",
				a.Name, a.StreamSends, a.StreamRecvs, b.StreamSends, b.StreamRecvs)
		}
	}
}

// RunChaosDiff is RunDiff's fault-injected sibling: for every chaos
// schedule and every (skew, p, seed) in the (reduced) matrix it runs
// the algorithm twice on identically seeded clusters — once fault-free,
// once under the schedule — and asserts that the chaos run recovers,
// matches the sequential oracle, and meters the exact (L, r, C) of the
// fault-free run.
func RunChaosDiff(t *testing.T, q hypergraph.Query, cfg Config, alg Algo) {
	t.Helper()
	cfg = cfg.withChaosDefaults()
	for _, spec := range cfg.ChaosSpecs {
		for _, skew := range cfg.Skews {
			for _, p := range cfg.Ps {
				for _, seed := range cfg.Seeds {
					spec, skew, p, seed := spec, skew, p, seed
					t.Run(fmt.Sprintf("%s/%s/%s/p%d/seed%d", spec, q.Name, skew, p, seed), func(t *testing.T) {
						rels := GenInstance(q, skew, cfg.Gen, seed)
						want := OracleJoin(q, rels)
						algSeed := uint64(seed)*0x9e3779b9 + uint64(p)

						clean := mpc.NewCluster(p, seed)
						if err := alg(clean, q, rels, "out", algSeed, nil); err != nil {
							t.Fatalf("fault-free run failed: %v", err)
						}
						chaotic := NewChaosCluster(p, seed, spec)
						if err := alg(chaotic, q, rels, "out", algSeed, nil); err != nil {
							t.Fatalf("chaos run failed: %v", err)
						}
						AssertRecovered(t, chaotic)
						if cfg.MustFault {
							AssertFaulted(t, chaotic)
						}
						AssertSameLRC(t, clean, chaotic)
						got := GatherResult(chaotic, "out", q.Vars())
						if !BagEqual(got, want) {
							t.Errorf("chaos run differs from oracle: %s", DiffSample(got, want))
						}
					})
				}
			}
		}
	}
}

// SweepChaos iterates the fault-schedule × (skew, p, seed) matrix as
// named subtests — Sweep's fault-injected sibling, for algorithms whose
// correctness statement is not "equals OracleJoin". The callback
// receives the schedule spec and is expected to build its clusters via
// NewChaosCluster (or SetFaultInjector) and assert with AssertRecovered
// / AssertSameLRC.
func SweepChaos(t *testing.T, cfg Config, fn func(t *testing.T, p int, seed int64, skew Skew, spec string)) {
	t.Helper()
	cfg = cfg.withChaosDefaults()
	for _, spec := range cfg.ChaosSpecs {
		for _, skew := range cfg.Skews {
			for _, p := range cfg.Ps {
				for _, seed := range cfg.Seeds {
					spec, skew, p, seed := spec, skew, p, seed
					t.Run(fmt.Sprintf("%s/%s/p%d/seed%d", spec, skew, p, seed), func(t *testing.T) {
						fn(t, p, seed, skew, spec)
					})
				}
			}
		}
	}
}
