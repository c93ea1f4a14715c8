package testkit

import (
	"fmt"
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/hypergraph"
	"mpcquery/internal/mpc"
	"mpcquery/internal/mpcnet"
)

// This file is the cross-backend differential harness: every algorithm
// runs identically-seeded on the default in-process transport and on the
// TCP transport (loopback mpcnet workers), and the two runs must be
// indistinguishable — bit-identical fragments on every server,
// identical (L, r, C) ledgers, and float-exact trace events (hence
// identical P99Recv/Gini skew summaries). The transport contract in
// internal/mpc promises this; these sweeps enforce it per algorithm.

// backendMatrix reduces the sweep for cross-backend runs: each cell
// executes the algorithm twice, and the TCP leg pays real socket I/O,
// so the matrix trades seed count for backend coverage. Short mode
// shrinks it further to keep `go test -short` fast.
func (cfg Config) withBackendDefaults() Config {
	if len(cfg.Ps) == 0 {
		cfg.Ps = []int{2, 4, 8}
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1, 2}
	}
	cfg = cfg.WithDefaults()
	if testing.Short() {
		cfg.Ps = cfg.Ps[:1+len(cfg.Ps)/2]
		cfg.Seeds = cfg.Seeds[:1]
		cfg.Skews = []Skew{SkewNone, SkewZipf}
	}
	return cfg
}

// NewTCPCluster builds a cluster of size p backed by a fresh loopback
// TCP transport, closed when the test ends; the worker count is chosen
// to not divide p evenly so shard ownership is exercised off the
// trivial 1:1 mapping.
func NewTCPCluster(t *testing.T, p int, seed int64) *mpc.Cluster {
	t.Helper()
	workers := 3
	if p < 3 {
		workers = p
	}
	tr, err := mpcnet.NewLoopback(p, mpcnet.Options{Workers: workers})
	if err != nil {
		t.Fatalf("loopback transport: %v", err)
	}
	t.Cleanup(func() { tr.Close() })
	c := mpc.NewCluster(p, seed)
	c.SetTransport(tr)
	return c
}

// AssertSameFragments asserts every server holds bit-identical
// fragments of every relation in both clusters — same relation names,
// same tuple order, same values. This is stronger than result
// equality: it pins the delivery order the transport contract promises.
func AssertSameFragments(t *testing.T, want, got *mpc.Cluster) {
	t.Helper()
	if want.P() != got.P() {
		t.Fatalf("cluster sizes %d vs %d", want.P(), got.P())
	}
	for i := 0; i < want.P(); i++ {
		wNames, gNames := want.Server(i).RelNames(), got.Server(i).RelNames()
		if len(wNames) != len(gNames) {
			t.Fatalf("server %d: %d relations vs %d (%v vs %v)", i, len(wNames), len(gNames), wNames, gNames)
		}
		for _, name := range wNames {
			fw, fg := want.Server(i).Rel(name), got.Server(i).Rel(name)
			if fg == nil {
				t.Fatalf("server %d: relation %s missing on second backend", i, name)
			}
			if fw.Len() != fg.Len() {
				t.Fatalf("%s server %d: %d vs %d tuples", name, i, fw.Len(), fg.Len())
			}
			for r := 0; r < fw.Len(); r++ {
				rw, rg := fw.Row(r), fg.Row(r)
				for j := range rw {
					if rw[j] != rg[j] {
						t.Fatalf("%s server %d row %d: %v vs %v", name, i, r, rw, rg)
					}
				}
			}
		}
	}
}

// AssertSameTrace asserts two clusters' ledgers draw element-wise
// identical traces. trace.Event is scalar-only and comparable, so this
// is float-exact — equal P99Recv, Gini, and every other derived skew
// summary fall out of it.
func AssertSameTrace(t *testing.T, want, got *mpc.Cluster) {
	t.Helper()
	we, ge := want.Metrics().Events(), got.Metrics().Events()
	if len(we) != len(ge) {
		t.Fatalf("trace: %d vs %d events", len(we), len(ge))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("trace event %d differs:\n  local: %+v\n  tcp:   %+v", i, we[i], ge[i])
		}
	}
}

// RunBackendDiff executes the cross-backend differential sweep for one
// algorithm on one query: for every (skew, p, seed) it runs the
// algorithm on the in-process engine and on the TCP backend with
// identical seeding and asserts the runs are indistinguishable —
// fragments, per-round ledgers, traces. Correctness against the oracle
// is RunDiff's job; this sweep pins backend equivalence.
func RunBackendDiff(t *testing.T, q hypergraph.Query, cfg Config, alg Algo) {
	t.Helper()
	cfg = cfg.withBackendDefaults()
	for _, skew := range cfg.Skews {
		for _, p := range cfg.Ps {
			for _, seed := range cfg.Seeds {
				skew, p, seed := skew, p, seed
				t.Run(fmt.Sprintf("%s/%s/p%d/seed%d", q.Name, skew, p, seed), func(t *testing.T) {
					rels := GenInstance(q, skew, cfg.Gen, seed)
					algSeed := uint64(seed)*0x9e3779b9 + uint64(p)

					local := mpc.NewCluster(p, seed)
					if err := alg(local, q, rels, "out", algSeed, nil); err != nil {
						t.Fatalf("local run failed: %v", err)
					}

					tcp := NewTCPCluster(t, p, seed)
					if err := alg(tcp, q, rels, "out", algSeed, nil); err != nil {
						t.Fatalf("tcp run failed: %v", err)
					}

					AssertSameFragments(t, local, tcp)
					AssertSameLRC(t, local, tcp)
					AssertSameTrace(t, local, tcp)
				})
			}
		}
	}
}

// SweepBackends is RunBackendDiff's free-form sibling for algorithms
// outside the conjunctive-query harness (sorting, aggregation, matrix
// multiplication): for every (skew, p, seed) the callback runs its
// workload on a provided cluster — once per backend, identically
// seeded — and the harness asserts the two runs indistinguishable.
// The callback must be deterministic given (cluster, p, seed, skew).
func SweepBackends(t *testing.T, cfg Config, run func(t *testing.T, c *mpc.Cluster, p int, seed int64, skew Skew)) {
	t.Helper()
	cfg = cfg.withBackendDefaults()
	for _, skew := range cfg.Skews {
		for _, p := range cfg.Ps {
			for _, seed := range cfg.Seeds {
				skew, p, seed := skew, p, seed
				t.Run(fmt.Sprintf("%s/p%d/seed%d", skew, p, seed), func(t *testing.T) {
					local := mpc.NewCluster(p, seed)
					run(t, local, p, seed, skew)

					tcp := NewTCPCluster(t, p, seed)
					run(t, tcp, p, seed, skew)

					AssertSameFragments(t, local, tcp)
					AssertSameLRC(t, local, tcp)
					AssertSameTrace(t, local, tcp)
				})
			}
		}
	}
}

// RunChaosDiffTCP is the fault-injected cross-backend sweep: the chaos
// schedule runs on a TCP-backed cluster, so recovery replays commit
// over real sockets, and the run must still recover, match the
// sequential oracle, and meter the exact (L, r, C) of a fault-free
// local run. The matrix is reduced harder than RunChaosDiff's — two
// packages carrying it is enough to pin transport×chaos composition.
func RunChaosDiffTCP(t *testing.T, q hypergraph.Query, cfg Config, alg Algo) {
	t.Helper()
	cfg = cfg.withChaosDefaults()
	cfg.Ps = []int{2, 5}
	cfg.Seeds = cfg.Seeds[:1]
	if testing.Short() {
		cfg.ChaosSpecs = cfg.ChaosSpecs[:1]
		cfg.Skews = cfg.Skews[:1]
	}
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

						chaotic := NewTCPCluster(t, p, seed)
						chaotic.SetFaultInjector(chaos.MustParseSchedule(spec))
						if err := alg(chaotic, q, rels, "out", algSeed, nil); err != nil {
							t.Fatalf("chaos-over-tcp run failed: %v", err)
						}
						AssertRecovered(t, chaotic)
						if cfg.MustFault {
							AssertFaulted(t, chaotic)
						}
						AssertSameLRC(t, clean, chaotic)
						got := GatherResult(chaotic, "out", q.Vars())
						if !BagEqual(got, want) {
							t.Errorf("chaos-over-tcp run differs from oracle: %s", DiffSample(got, want))
						}
					})
				}
			}
		}
	}
}
