// Command bench is the repository's benchmark: five workloads through the two
// product front doors, timings scaled to a reference machine by an in-process
// calibration kernel, model costs and allocation counts that repeat exactly,
// and a traced pass that times each layer from the outside. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	workloadFlag := flag.String("workload", "", "run this one workload and print the driver's JSON line last (default: all five, both passes)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and of the op order")
	seconds := flag.Float64("seconds", 12, "timed seconds per workload; sets the block count, never a block's length")
	traceFlag := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, untraced; 1 = per-layer metrics, traced")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the two sets against the bounds")
	outDir := flag.String("out", "bench/out", "directory the traced pass writes trace-<workload>.json into")
	flag.BoolVar(&verbose, "v", false, "print one line per timed block to standard error")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// Two threads everywhere: the numbers must not depend on how many cores
	// the machine that happens to run the benchmark has.
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	case *workloadFlag != "":
		err = runOne(*workloadFlag, *seed, *seconds, *traceFlag != 0, *outDir)
	default:
		err = runAll(*seed, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// errFailedOps makes the command exit non-zero after it has reported.
type errFailedOps struct{ failed, attempted int }

func (e errFailedOps) Error() string {
	return fmt.Sprintf("bench: %d of %d ops failed or returned a wrong result", e.failed, e.attempted)
}

func check(res result) error {
	if res.Failed > 0 {
		return errFailedOps{res.Failed, res.Attempted}
	}
	return nil
}

// runOne is the driver's entry: one workload, one pass, JSON last.
func runOne(name string, seed int64, seconds float64, traced bool, outDir string) error {
	w, err := buildWorkload(name, seed, 1)
	if err != nil {
		return err
	}
	var res result
	if traced {
		if res, err = runPerLayer(w, outDir); err != nil {
			return err
		}
		printTable(os.Stdout, name+" per-layer, seed "+fmt.Sprint(seed), perLayerDefs, res, nil)
	} else {
		var notes map[string]string
		if res, notes, err = runEndToEnd(w, seconds); err != nil {
			return err
		}
		printTable(os.Stdout, name+" end-to-end, seed "+fmt.Sprint(seed), endToEndDefs, res, notes)
	}
	fmt.Println(res.jsonLine())
	return check(res)
}

// runAll prints every metric of every workload: the untraced pass, then the
// traced one.
func runAll(seed int64, seconds float64, outDir string) error {
	failed, attempted := 0, 0
	for _, name := range workloadNames {
		w, err := buildWorkload(name, seed, 1)
		if err != nil {
			return err
		}
		res, notes, err := runEndToEnd(w, seconds)
		if err != nil {
			return err
		}
		printTable(os.Stdout, name+" end-to-end, seed "+fmt.Sprint(seed), endToEndDefs, res, notes)
		layers, err := runPerLayer(w, outDir)
		if err != nil {
			return err
		}
		printTable(os.Stdout, name+" per-layer", perLayerDefs, layers, nil)
		fmt.Println()
		failed += res.Failed + layers.Failed
		attempted += res.Attempted + layers.Attempted
	}
	if failed > 0 {
		return errFailedOps{failed, attempted}
	}
	return nil
}

// runSelfcheck runs two full end-to-end sets back to back on the same seed
// and holds their difference to the benchmark's own bounds: timings may
// differ by their bound, the model costs must be identical.
func runSelfcheck(seed int64, seconds float64) error {
	excess := 0
	for _, name := range workloadNames {
		var sets [2]result
		for i := range sets {
			w, err := buildWorkload(name, seed, 1)
			if err != nil {
				return err
			}
			if sets[i], _, err = runEndToEnd(w, seconds); err != nil {
				return err
			}
			if err := check(sets[i]); err != nil {
				return err
			}
		}
		fmt.Printf("%s\n  %-28s %14s %14s %9s %7s\n", name, "metric", "first", "second", "diff", "bound")
		for _, d := range endToEndDefs {
			a, b := sets[0].Metrics[d.Name].Value, sets[1].Metrics[d.Name].Value
			diff, bound := relDiff(a, b), d.Bound
			if isModelMetric(d.Name) {
				bound = 0
			}
			verdict := ""
			if diff > bound {
				verdict = "  EXCEEDS"
				excess++
			}
			fmt.Printf("  %-28s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", d.Name, a, b, 100*diff, 100*bound, verdict)
		}
	}
	if excess > 0 {
		return fmt.Errorf("bench: selfcheck: %d metrics differ between two runs of the same code by more than their bound", excess)
	}
	return nil
}

func isModelMetric(name string) bool { return strings.HasPrefix(name, "model_") }

// relDiff is |a-b| as a share of their mean.
func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return ratio(d, (a+b)/2)
}
