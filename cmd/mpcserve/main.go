// Command mpcserve is a long-running multi-tenant query service over
// the MPC simulator: it registers a data set once, then serves Datalog
// queries over HTTP with admission control, per-tenant token-bucket
// quotas, and a plan cache.
//
// Usage:
//
//	mpcserve -demo -n 5000 -addr 127.0.0.1:8080
//	mpcserve -data ./csvdir -p 16 -quota-rate 10 -quota-burst 20
//	mpcserve -demo -capacities 4,4,1,1,1,1,1,1
//
// Endpoints:
//
//	POST /query    {"tenant":"t1","query":"q(x,z) :- R(x,y), S(y,z).","trace":false}
//	GET  /healthz  liveness probe
//	GET  /metrics  counters: queries, sheds, in-flight high water,
//	               plan-cache hits/misses/invalidations, per-tenant 429s
//
// Failures map to statuses: 400 malformed query (the body carries the
// line:col-positioned message), 429 tenant over quota, 503 shed by
// admission control, 500 execution failure.
//
// With -data every <dir>/<name>.csv (header row + int64 rows) is
// registered as relation <name>. With -demo a small generated data set
// is registered instead: binary R, S, T, E and unary V — enough to run
// joins, aggregates, transitive closure, and reachability out of the
// box.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpcquery/internal/cost"
	"mpcquery/internal/relation"
	"mpcquery/internal/service"
	"mpcquery/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	p := flag.Int("p", 8, "simulated cluster size per query")
	seed := flag.Int64("seed", 1, "engine seed (equal seeds give bit-identical executions)")
	dataDir := flag.String("data", "", "directory of <name>.csv files to register as relations")
	demo := flag.Bool("demo", false, "register a generated demo data set (R, S, T, E binary; V unary)")
	n := flag.Int("n", 5000, "tuples per demo relation")
	maxInflight := flag.Int("max-inflight", 4, "maximum concurrently executing queries")
	maxQueue := flag.Int("max-queue", 16, "maximum queries waiting for an execution slot")
	queueTimeout := flag.Duration("queue-timeout", 100*time.Millisecond, "how long a queued query waits before being shed")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant sustained queries/second (0 disables quotas)")
	quotaBurst := flag.Float64("quota-burst", 0, "per-tenant burst capacity (default max(quota-rate, 1))")
	cacheSize := flag.Int("plan-cache", 128, "plan cache capacity (entries)")
	maxRows := flag.Int("max-rows", 100, "result rows embedded per response")
	capacities := flag.String("capacities", "", "comma-separated per-server capacities (len p, entries > 0); HyperCube gives each server a grid box sized to its capacity")
	flag.Parse()

	caps, err := cost.ParseCapacities(*capacities)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcserve:", err)
		os.Exit(1)
	}
	if caps != nil && len(caps) != *p {
		fmt.Fprintf(os.Stderr, "mpcserve: -capacities has %d entries for p=%d\n", len(caps), *p)
		os.Exit(1)
	}

	svc, err := buildService(service.Config{
		P:             *p,
		Seed:          *seed,
		MaxInflight:   *maxInflight,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
		QuotaRate:     *quotaRate,
		QuotaBurst:    *quotaBurst,
		PlanCacheSize: *cacheSize,
		MaxResultRows: *maxRows,
		Capacities:    caps,
	}, *dataDir, *demo, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpcserve:", err)
		os.Exit(1)
	}
	fmt.Printf("mpcserve: serving %v on http://%s (p=%d)\n", svc.Relations(), *addr, *p)
	if err := http.ListenAndServe(*addr, svc.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "mpcserve:", err)
		os.Exit(1)
	}
}

// buildService constructs the service and registers its data set from
// -data, -demo, or both (CSV wins on name collision, registered last).
// service.Service.Register makes each relation a set as it enters.
func buildService(cfg service.Config, dataDir string, demo bool, n int, seed int64) (*service.Service, error) {
	if dataDir == "" && !demo {
		return nil, fmt.Errorf("no data: pass -data <dir> or -demo")
	}
	svc := service.New(cfg)
	if demo {
		dom := n / 2
		if dom < 2 {
			dom = 2
		}
		for i, name := range []string{"R", "S", "T"} {
			svc.Register(workload.Uniform(name, []string{"a", "b"}, n, dom, seed+int64(i)))
		}
		edges := workload.RandomGraph("E", "s", "d", n/2+2, n, seed+10)
		// V: a handful of source vertices for reachability programs.
		v := relation.New("V", "v")
		for i := 0; i < 3 && i < edges.Len(); i++ {
			v.AppendRow([]relation.Value{edges.Row(i)[0]})
		}
		svc.Register(edges)
		svc.Register(v)
	}
	if dataDir != "" {
		paths, err := filepath.Glob(filepath.Join(dataDir, "*.csv"))
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no *.csv files in %s", dataDir)
		}
		for _, path := range paths {
			name := strings.TrimSuffix(filepath.Base(path), ".csv")
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			rel, err := relation.ReadCSV(name, f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("load %s: %w", name, err)
			}
			svc.Register(rel)
		}
	}
	return svc, nil
}
