package chaos_test

import (
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
// exercise every fault path, low enough that the bounded persistence
// guarantee (Attempts > Persist) always converges.
func fuzzRate(b byte) float64 { return float64(b%128) / 254 }

// runFuzzProgram executes a small two-round shuffle on c and returns
// the gathered output. The program routes every tuple through a
// partition round and a rebalance round, plus an arity-0 control
// stream, so drops/dups/crashes hit multi-stream, multi-round traffic.
func runFuzzProgram(c *mpc.Cluster, rows int) *relation.Relation {
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
	return c.Gather("out")
}

// FuzzChaosDeliver drives the recovery protocol with fuzz-chosen rates
// and asserts the central chaos guarantee: a recovered run commits
// state and metering bit-for-bit identical to the fault-free run, and
// replaying the same schedule reproduces the same recovery ledger.
func FuzzChaosDeliver(f *testing.F) {
	f.Add(uint64(1), byte(20), byte(10), byte(15), byte(30), uint16(64))
	f.Add(uint64(99), byte(0), byte(0), byte(0), byte(0), uint16(7))
	f.Add(uint64(3), byte(127), byte(127), byte(127), byte(127), uint16(200))
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, crash, straggle byte, size uint16) {
		rows := int(size%512) + 1
		cfg := chaos.Config{
			Seed:     seed,
			Drop:     fuzzRate(drop),
			Dup:      fuzzRate(dup),
			Crash:    fuzzRate(crash),
			Straggle: fuzzRate(straggle),
		}
		sched, err := chaos.New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}

		const p, clusterSeed = 4, 11
		clean := mpc.NewCluster(p, clusterSeed)
		want := runFuzzProgram(clean, rows)

		run := func() (*relation.Relation, *mpc.Metrics) {
			c := mpc.NewCluster(p, clusterSeed)
			c.SetFaultInjector(sched)
			out := runFuzzProgram(c, rows)
			if c.Failed() != nil {
				t.Fatalf("bounded-persistence run failed recovery: %v", c.Failed())
			}
			return out, c.Metrics()
		}
		got1, m1 := run()
		got2, m2 := run()

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
