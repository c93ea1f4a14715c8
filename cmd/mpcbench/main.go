// Command mpcbench regenerates the tutorial's tables and figures on the
// MPC simulator and prints paper-formula vs. measured values.
//
// Usage:
//
//	mpcbench                 # run every experiment (E01..E28, A01..A07)
//	mpcbench -run E07,E10    # run a subset
//	mpcbench -list           # list experiment IDs and titles
//
// A failed experiment prints its error and exits 1. EXPERIMENTS.md holds
// the same tables; `go test ./internal/experiments` checks them.
//
// It also carries the CI benchmark gate:
//
//	go test -bench . -benchtime 1x ./... | mpcbench -benchcheck -
//
// which compares each benchmark's ns/op against BENCH_BASELINE.json and
// exits non-zero when any exceeds -maxratio times its baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mpcquery/internal/experiments"
	"mpcquery/internal/mpc"
	"mpcquery/internal/trace"
)

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	benchCheck := flag.String("benchcheck", "", "compare `go test -bench` output (file path, or - for stdin) against the baseline and exit non-zero on regressions")
	baseline := flag.String("baseline", "BENCH_BASELINE.json", "baseline file for -benchcheck")
	maxRatio := flag.Float64("maxratio", 3.0, "fail -benchcheck when measured ns/op exceeds this multiple of baseline")
	traceFile := flag.String("trace", "", "record every cluster the experiments build into one trace file (.jsonl → JSON lines, otherwise Chrome trace_event)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	flag.Parse()

	if *benchCheck != "" {
		regressions, err := runBenchCheck(os.Stdout, *baseline, *benchCheck, *maxRatio)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpcbench: %v\n", err)
			os.Exit(1)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%s  %s\n", e.ID, e.Title)
		}
		return
	}

	selected := experiments.All
	if *runFlag != "" {
		selected = nil
		for _, id := range strings.Split(*runFlag, ",") {
			e := experiments.ByID(strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "mpcbench: unknown experiment %q (use -list)\n", id)
				os.Exit(1)
			}
			selected = append(selected, *e)
		}
	}

	var rec *trace.Recorder
	if *traceFile != "" {
		// Experiments build their clusters internally, so the recorder is
		// installed as the process-wide default picked up by NewCluster.
		rec = trace.NewRecorder()
		mpc.SetDefaultTracer(rec)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpcbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mpcbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	for _, e := range selected {
		start := time.Now()
		table, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpcbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(table.Render())
		fmt.Printf("  (%v)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if rec != nil {
		if err := trace.WriteFile(*traceFile, rec.Events()); err != nil {
			fmt.Fprintf(os.Stderr, "mpcbench: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events written to %s\n", len(rec.Events()), *traceFile)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpcbench: memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mpcbench: memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}
