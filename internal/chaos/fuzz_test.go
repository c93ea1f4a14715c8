package chaos_test

import (
	"errors"
	"reflect"
	"testing"

	"mpcquery/internal/chaos"
	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// FuzzScheduleParse pins the parser contract: Parse never panics, and
// whenever it accepts a spec, Config.String() is a canonical form that
// reparses to the identical Config.
func FuzzScheduleParse(f *testing.F) {
	for _, seed := range []string{
		"7",
		"7:drop=0.05",
		"1:drop=0.05,dup=0.02,crash=0.01,straggle=0.1,delay=8,persist=2,attempts=8",
		"18446744073709551615:straggle=1",
		"0:dup=1e-05",
		"9: drop = 0.5 , crash = 0.25 ",
		"7:drop=1.5",
		"::",
		"7:drop=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := chaos.Parse(spec)
		if err != nil {
			return
		}
		out := cfg.String()
		cfg2, err := chaos.Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) ok but canonical form %q rejected: %v", spec, out, err)
		}
		if cfg2 != cfg {
			t.Fatalf("Parse(%q) round-trip mismatch: %+v vs %+v (canonical %q)", spec, cfg, cfg2, out)
		}
		if out2 := cfg2.String(); out2 != out {
			t.Fatalf("String not a fixed point for %q: %q vs %q", spec, out, out2)
		}
	})
}

// fuzzRate maps a fuzz byte to a rate in [0, 0.5]: high enough to
// exercise every fault path, low enough that a bounded-persistence
// schedule (Attempts > Persist) always converges.
func fuzzRate(b byte) float64 { return float64(b%128) / 254 }

// runFuzzProgram executes a small two-round shuffle on c, leaving its
// output under "out". The program routes every tuple through a
// partition round and a rebalance round, plus an arity-0 control
// stream, so drops/dups/crashes hit multi-stream, multi-round traffic.
func runFuzzProgram(c *mpc.Cluster, rows int) {
	r := relation.New("R", "a", "b")
	for i := 0; i < rows; i++ {
		r.Append(int64(i%13), int64(i))
	}
	c.ScatterRoundRobin(r)
	c.Round("partition", func(s *mpc.Server, out *mpc.Out) {
		st := out.Open("P", "a", "b")
		done := out.Open("done")
		local := s.RelOrEmpty("R", "a", "b")
		for i := 0; i < local.Len(); i++ {
			row := local.Row(i)
			st.SendRow(int(row[0])%s.P(), row)
		}
		done.Send((s.ID() + 1) % s.P())
	})
	c.Round("rebalance", func(s *mpc.Server, out *mpc.Out) {
		st := out.Open("out", "a", "b")
		local := s.RelOrEmpty("P", "a", "b")
		for i := 0; i < local.Len(); i++ {
			row := local.Row(i)
			st.SendRow(int(row[1])%s.P(), row)
		}
	})
}

// FuzzChaosDeliver drives the recovery protocol with fuzz-chosen rates
// and asserts the central chaos guarantee: a recovered run commits
// state and metering bit-for-bit identical to the fault-free run, and
// replaying the same schedule reproduces the same recovery ledger.
// budget 0 keeps the default bounded persistence, under which every
// run recovers; any other budget sets Persist ≥ Attempts, and a run
// that then fails must fail as its replay does: Err is a
// *RecoveryFailure carrying the cluster's ledger, at the same round,
// with the same attempt log.
func FuzzChaosDeliver(f *testing.F) {
	f.Add(uint64(1), byte(20), byte(10), byte(15), byte(30), uint16(64), byte(0))
	f.Add(uint64(99), byte(0), byte(0), byte(0), byte(0), uint16(7), byte(0))
	f.Add(uint64(3), byte(127), byte(127), byte(127), byte(127), uint16(200), byte(0))
	f.Add(uint64(5), byte(60), byte(0), byte(0), byte(0), uint16(100), byte(1))
	f.Add(uint64(8), byte(10), byte(5), byte(40), byte(20), uint16(300), byte(6))
	f.Add(uint64(2), byte(3), byte(0), byte(3), byte(0), uint16(9), byte(13))
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, crash, straggle byte, size uint16, budget byte) {
		rows := int(size%512) + 1
		cfg := chaos.Config{
			Seed:     seed,
			Drop:     fuzzRate(drop),
			Dup:      fuzzRate(dup),
			Crash:    fuzzRate(crash),
			Straggle: fuzzRate(straggle),
		}
		if budget != 0 {
			cfg.Attempts = 1 + int(budget%4)
			cfg.Persist = cfg.Attempts + int(budget/4%4)
		}
		sched, err := chaos.New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}

		const p, clusterSeed = 4, 11
		clean := mpc.NewCluster(p, clusterSeed)
		runFuzzProgram(clean, rows)
		want := clean.Gather("out")

		run := func() *mpc.Cluster {
			c := mpc.NewCluster(p, clusterSeed)
			c.SetFaultInjector(sched)
			runFuzzProgram(c, rows)
			return c
		}
		c1, c2 := run(), run()
		m1, m2 := c1.Metrics(), c2.Metrics()

		if err := c1.Err(); err != nil {
			var f1, f2 *mpc.RecoveryFailure
			if budget == 0 || !errors.As(err, &f1) || f1.Metrics != m1 {
				t.Fatalf("run failed with %v (rates %+v)", err, cfg)
			}
			if !errors.As(c2.Err(), &f2) || f2.Round != f1.Round || f2.Name != f1.Name || f2.Attempts != f1.Attempts || f2.Lost != f1.Lost {
				t.Fatalf("replay failed as %v, the run as %v", c2.Err(), f1)
			}
			if !reflect.DeepEqual(m1.Events(), m2.Events()) {
				t.Fatalf("replay of failed round %d drew another ledger", f1.Round)
			}
			return
		}
		if c2.Err() != nil {
			t.Fatalf("replay failed with %v, the run recovered", c2.Err())
		}
		got1, got2 := c1.Gather("out"), c2.Gather("out")
		if !got1.EqualAsSets(want) {
			t.Fatalf("chaos run output differs from fault-free run (rates %+v)", cfg)
		}
		if !got2.EqualAsSets(got1) {
			t.Fatalf("replaying the same schedule produced different output (rates %+v)", cfg)
		}
		cleanStats, s1, s2 := clean.Metrics().RoundStats(), m1.RoundStats(), m2.RoundStats()
		if len(s1) != len(cleanStats) || len(s2) != len(cleanStats) {
			t.Fatalf("round counts differ: clean=%d chaos=%d/%d", len(cleanStats), len(s1), len(s2))
		}
		for i := range cleanStats {
			for srv := 0; srv < p; srv++ {
				if s1[i].Recv[srv] != cleanStats[i].Recv[srv] || s1[i].RecvWords[srv] != cleanStats[i].RecvWords[srv] {
					t.Fatalf("round %d server %d metering differs from fault-free run", i, srv)
				}
			}
			if s1[i].Chaos == nil || !reflect.DeepEqual(s1[i].Chaos, s2[i].Chaos) {
				t.Fatalf("round %d recovery ledger not reproduced on replay: %+v vs %+v", i, s1[i].Chaos, s2[i].Chaos)
			}
		}
	})
}
