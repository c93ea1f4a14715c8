package mpc_test

import (
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// TestWarmEmptyStepAllocsIndependentOfP is the fan-out's allocation
// wall: a warm empty Round, and a warm empty LocalStep, allocate as
// often at p = 4 as at 64 and 256. A goroutine started, or anything
// allocated, per server breaks it. The collector is off while it counts.
func TestWarmEmptyStepAllocsIndependentOfP(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, step := range []struct {
		name string
		run  func(c *mpc.Cluster)
	}{
		{"Round", func(c *mpc.Cluster) { c.Round("empty", func(*mpc.Server, *mpc.Out) {}) }},
		{"LocalStep", func(c *mpc.Cluster) { c.LocalStep(func(*mpc.Server) {}) }},
	} {
		var allocs []float64
		for _, p := range []int{4, 64, 256} {
			c := mpc.NewCluster(p, 1)
			allocs = append(allocs, testing.AllocsPerRun(20, func() { step.run(c) }))
		}
		if allocs[1] != allocs[0] || allocs[2] != allocs[0] {
			t.Errorf("a warm empty %s allocates %v times at p = 4 / 64 / 256; want one count", step.name, allocs)
		}
	}
}

// ring runs one round in which every server sends its id to the next,
// and checks that each received exactly its predecessor's.
func ring(c *mpc.Cluster) error {
	c.Round("ring", func(s *mpc.Server, out *mpc.Out) {
		out.Open("ring", "from").Send((s.ID()+1)%s.P(), relation.Value(s.ID()))
	})
	defer c.DeleteAll("ring")
	for i := 0; i < c.P(); i++ {
		got, want := c.Server(i).Rel("ring"), relation.Value((i+c.P()-1)%c.P())
		if got.Len() != 1 || got.Row(0)[0] != want {
			return fmt.Errorf("p=%d: server %d received %v, want [%d]", c.P(), i, got, want)
		}
	}
	return nil
}

// TestFanOutConcurrentAndNested pins that the workers are shared
// safely: two clusters run rounds from two goroutines at once, and a
// LocalStep whose every server runs rounds on a cluster of its own
// finishes. Every round delivers the right fragments. Under -race this
// is the fan-out's race test.
func TestFanOutConcurrentAndNested(t *testing.T) {
	t.Run("concurrent", func(t *testing.T) {
		a, b := mpc.NewCluster(8, 1), mpc.NewCluster(5, 2)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				if err := ring(a); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for r := 0; r < 50; r++ {
			if err := ring(b); err != nil {
				t.Error(err)
				break
			}
		}
		wg.Wait()
	})
	t.Run("nested", func(t *testing.T) {
		outer := mpc.NewCluster(4, 3)
		inner := make([]*mpc.Cluster, outer.P())
		for i := range inner {
			inner[i] = mpc.NewCluster(3+i, int64(i))
		}
		errs := make([]error, outer.P())
		outer.LocalStep(func(s *mpc.Server) {
			for r := 0; r < 10 && errs[s.ID()] == nil; r++ {
				errs[s.ID()] = ring(inner[s.ID()])
			}
		})
		for _, err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
		if err := ring(outer); err != nil {
			t.Error(err)
		}
	})
}

// TestWarmRoundsStartNoGoroutine pins that the fan-out's workers are
// reused: after warm-up, rounds start no worker, and a p = 256 round
// leaves enough idle workers that the p = 8 rounds after it start none.
// Between calls every worker is idle. It counts the fan-out's workers,
// not runtime.NumGoroutine(): that also counts goroutines the test does
// not own (an earlier test's loopback readers exiting, the finalizer
// goroutine while it runs), which come and go under load.
func TestWarmRoundsStartNoGoroutine(t *testing.T) {
	small := mpc.NewCluster(8, 1)
	rounds := func(n int) {
		for r := 0; r < n; r++ {
			if err := ring(small); err != nil {
				t.Fatal(err)
			}
			if started, idle := mpc.FanOutWorkers(); idle != started {
				t.Fatalf("after a round: %d of %d workers idle", idle, started)
			}
		}
	}
	rounds(10)
	before, _ := mpc.FanOutWorkers()
	rounds(100)
	if after, _ := mpc.FanOutWorkers(); after != before {
		t.Fatalf("100 warm rounds at p = 8: %d workers before, %d after", before, after)
	}
	if err := ring(mpc.NewCluster(256, 1)); err != nil {
		t.Fatal(err)
	}
	if started, _ := mpc.FanOutWorkers(); started < 256 {
		t.Fatalf("after a p = 256 round: %d workers started; want at least 256", started)
	}
	before, _ = mpc.FanOutWorkers()
	rounds(10)
	if after, _ := mpc.FanOutWorkers(); after != before {
		t.Fatalf("p = 8 rounds after a p = 256 round: %d workers before, %d after", before, after)
	}
}
