package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mpcquery/internal/service"
	"mpcquery/internal/workload"
)

// E27ServiceThroughput drives the in-process multi-tenant query service
// (the same stack cmd/mpcserve exposes over HTTP) with concurrent
// workers and measures sustained QPS, latency percentiles, and the plan
// cache hit rate across workload mixes. The cache-hot rows amortize
// parsing + planning to a lookup; the cache-cold row pays the full
// frontend on every request (every query a fresh shape); the recursive
// row is never cached, so it prices the fixpoint itself. All rows run
// behind the same admission controller, whose in-flight high-water mark
// is asserted against its bound, never merely trusted.
func E27ServiceThroughput() (*Table, error) {
	const (
		p        = 4
		n        = 400
		requests = 300
		workers  = 8
		inflight = 4
	)
	t := &Table{
		ID: "E27", Title: "mpcserve sustained throughput by workload mix",
		SlideRef: "multi-tenant serving of the paper's algorithms (methodology in EXPERIMENTS.md)",
		Header:   []string{"workload", "requests", "QPS", "p50 µs", "p99 µs", "cache hit rate"},
		// Concurrent workers race on first misses, so even the hit rate
		// moves between runs (0.98 vs 0.99).
		RunDependent: []string{"QPS", "p50 µs", "p99 µs", "cache hit rate"},
	}

	// Cold mix: every request a structurally fresh shape (chain length
	// and head permutation vary), so nothing ever hits.
	coldShapes := make([]string, 16)
	for i := range coldShapes {
		switch i % 4 {
		case 0:
			coldShapes[i] = fmt.Sprintf("q%d(x, y, z) :- R(x, y), S(y, z).", i)
		case 1:
			coldShapes[i] = fmt.Sprintf("q%d(z, y, x) :- R(x, y), S(y, z).", i)
		case 2:
			coldShapes[i] = fmt.Sprintf("q%d(y, x, z) :- R(x, y), S(y, z).", i)
		default:
			coldShapes[i] = fmt.Sprintf("q%d(x, z, y) :- R(x, y), S(y, z).", i)
		}
	}
	mixes := []struct {
		name   string
		shapes []string
		// distinct counts how many plan-cache keys the mix produces; -1
		// means the mix is uncacheable (recursive).
		distinct int
	}{
		{"hot: one join shape", []string{"q(x, y, z) :- R(x, y), S(y, z)."}, 1},
		{"hot: join+triangle+aggregate", []string{
			"q(x, y, z) :- R(x, y), S(y, z).",
			"tri(x, y, z) :- R(x, y), S(y, z), T(z, x).",
			"agg(x, sum(z)) :- R(x, y), S(y, z).",
		}, 3},
		// Predicate names normalize away, so the 16 texts collapse to 4
		// keys — one per head permutation (see the table note).
		{"cool: head-permuted shapes", coldShapes, 4},
		{"uncached: recursive tc", []string{"tc(x, y) :- E(x, y).\ntc(x, z) :- tc(x, y), E(y, z)."}, -1},
	}

	for _, mix := range mixes {
		s := service.New(service.Config{
			P: p, MaxInflight: inflight, MaxQueue: workers * 2,
			QueueTimeout: 5 * time.Second, MaxResultRows: 10,
		})
		s.Register(workload.Uniform("R", []string{"a", "b"}, n, n/2, 1))
		s.Register(workload.Uniform("S", []string{"a", "b"}, n, n/2, 2))
		s.Register(workload.Uniform("T", []string{"a", "b"}, n, n/2, 3))
		s.Register(workload.RandomGraph("E", "s", "d", 60, 200, 4))

		var mu sync.Mutex
		lat := make([]time.Duration, 0, requests)
		errs := make([]error, requests)
		var wg sync.WaitGroup
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					q := mix.shapes[i%len(mix.shapes)]
					t0 := time.Now()
					_, errs[i] = s.Do(service.Request{Tenant: fmt.Sprintf("t%d", i%3), Query: q})
					d := time.Since(t0)
					mu.Lock()
					lat = append(lat, d)
					mu.Unlock()
				}
			}()
		}
		start := time.Now()
		for i := 0; i < requests; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		elapsed := time.Since(start)
		if err := errors.Join(errs...); err != nil {
			return nil, fmt.Errorf("%s: %w", mix.name, err)
		}

		m := s.Snapshot()
		if m.InflightHighWater > inflight {
			return nil, fmt.Errorf("%s: admission bound violated: %d > %d", mix.name, m.InflightHighWater, inflight)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		hitRate := "n/a"
		if total := m.PlanCache.Hits + m.PlanCache.Misses; total > 0 {
			hitRate = fmt.Sprintf("%.2f", float64(m.PlanCache.Hits)/float64(total))
		}
		t.AddRow(mix.name, fmtInt(requests),
			fmtInt(int64(float64(requests)/elapsed.Seconds())),
			fmtInt(lat[len(lat)/2].Microseconds()),
			fmtInt(lat[len(lat)*99/100].Microseconds()),
			hitRate)
	}
	t.Note("p = %d per query, %d concurrent workers, MaxInflight = %d (high-water asserted ≤ bound)", p, workers, inflight)
	t.Note("plan-cache keys normalize variable and predicate names, so the head-permuted mix")
	t.Note("collapses 16 query texts to 4 keys — renaming alone cannot defeat the cache")
	t.Note("absolute QPS is machine-dependent; the ordering hot > cool > recursive is not")
	return t, nil
}
