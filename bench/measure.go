package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

const (
	blockTargetS    = 1.0 // a timed block's intended length; its op count is fixed, this only sets how many blocks --seconds buys
	setupSamples    = 5
	setupSampleMinS = 0.3
)

// verbose makes every timed block print one line to standard error.
var verbose bool

// opSample is one op's raw latency.
type opSample struct {
	kind int32 // workload.kindOf of the op id
	ms   float64
}

// blockStats is everything measured over one timed block. Sums run over the
// block's ops; the op calls alone are timed, not the verification between
// them.
type blockStats struct {
	ops, failed int
	wall, cpu   time.Duration
	samples     []opSample
	kWall, kCPU float64 // factors that scale this block's wall and CPU time to the reference machine
	mixed       bool    // the machine changed speed under the block: it is counted but not timed
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	gcCPUS      float64 // seconds of CPU the collector used
	goCPUS      float64 // seconds of CPU the collector and user Go code used together
	cost        cost    // summed over ops
}

// gcCPUSeconds reads the runtime's estimate of the CPU time spent in the
// collector, and in the collector and user Go code together.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, gc + total
}

// runBlock runs one block's ops in order through sys, appending their
// latencies to samples (whose capacity the caller reserved, so the harness
// does not allocate while the product runs).
func runBlock(sys system, w *workload, seq []int, tr *tracer, samples []opSample) blockStats {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, tot0 := gcCPUSeconds()
	b := blockStats{samples: samples}
	for _, id := range seq {
		obs := sys.exec(id, tr)
		b.ops++
		if !obs.ok {
			b.failed++
		}
		b.wall += obs.dur
		b.cpu += obs.cpu
		b.cost.add(obs.cost)
		b.samples = append(b.samples, opSample{kind: w.kindOf[id], ms: ms(obs.dur)})
	}
	runtime.ReadMemStats(&m1)
	gc1, tot1 := gcCPUSeconds()
	b.mallocs = m1.Mallocs - m0.Mallocs
	b.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	b.gcCycles = m1.NumGC - m0.NumGC
	b.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	b.gcCPUS, b.goCPUS = gc1-gc0, tot1-tot0
	return b
}

// pass is a run of timed blocks with a calibration between every two.
type pass struct {
	blocks []blockStats
	cals   []calSample
}

// timedPass runs n blocks, numbered from first, each the given fraction of a
// full block, calibrating before, between and after them.
func timedPass(sys system, w *workload, first, n int, fraction float64, tr *tracer) pass {
	p := pass{blocks: make([]blockStats, n), cals: make([]calSample, 0, n+1)}
	seqs := make([][]int, n)
	total := 0
	for i := range seqs {
		seq := w.sequence(first + i)
		seqs[i] = seq[:int(math.Ceil(float64(len(seq))*fraction))]
		total += len(seqs[i])
	}
	store := make([]opSample, 0, total)
	p.cals = append(p.cals, calibrate())
	for i := range p.blocks {
		b := runBlock(sys, w, seqs[i], tr, store[len(store):len(store):len(store)+len(seqs[i])])
		store = store[:len(store)+len(b.samples)]
		p.blocks[i] = b
		p.cals = append(p.cals, calibrate())
	}
	for i := range p.blocks {
		b := &p.blocks[i]
		b.kWall, b.kCPU, b.mixed = factorsAt(p.cals, i)
		if verbose {
			fmt.Fprintf(os.Stderr, "  block %d: %d ops, wall %.3fs, %.1f ops/s raw, %.1f ref, cal %.1f→%.1f ms, %d GCs, mixed=%v\n",
				first+i, b.ops, b.wall.Seconds(), float64(b.ops)/b.wall.Seconds(), float64(b.ops)/b.wall.Seconds()/b.kWall,
				p.cals[i].wallMS, p.cals[i+1].wallMS, b.gcCycles, b.mixed)
		}
	}
	return p
}

// timed returns the blocks whose timings count: all of them but those the
// machine changed speed under, unless that would leave fewer than two thirds.
func (p pass) timed() (kept []blockStats, dropped int) {
	for _, b := range p.blocks {
		if !b.mixed {
			kept = append(kept, b)
		}
	}
	if 3*len(kept) < 2*len(p.blocks) {
		return p.blocks, 0
	}
	return kept, len(p.blocks) - len(kept)
}

// setupResult is the cold-start measurement.
type setupResult struct {
	refS, rawS float64 // medians over samples
	samples    int
	starts     int // cold starts timed in all
	cals       []calSample
}

// measureSetup times cold starts: n samples, each the mean of as many
// start-then-close cycles as fit in setupSampleMinS, each sample scaled by the
// calibrations around it.
func measureSetup(w *workload, n int) (setupResult, error) {
	res := setupResult{samples: n}
	var raw []float64
	res.cals = append(res.cals, calibrate())
	for i := 0; i < n; i++ {
		runtime.GC()
		var spent time.Duration
		count := 0
		for spent.Seconds() < setupSampleMinS {
			t0 := time.Now()
			sys, err := w.start()
			spent += time.Since(t0)
			if err != nil {
				return res, err
			}
			sys.close()
			count++
		}
		res.cals = append(res.cals, calibrate())
		raw = append(raw, spent.Seconds()/float64(count))
		res.starts += count
	}
	ref := make([]float64, n)
	for i := range raw {
		k, _, _ := factorsAt(res.cals, i)
		ref[i] = raw[i] * k
	}
	res.refS, res.rawS = median(ref), median(raw)
	return res, nil
}

// warmUp runs a third of a block untimed so that the first timed block does
// not pay for anything the cold starts left cold.
func warmUp(sys system, w *workload) error {
	seq := w.sequence(-1)
	for _, id := range seq[:(len(seq)+2)/3] {
		if obs := sys.exec(id, nil); !obs.ok {
			return fmt.Errorf("bench: %s: warm-up op %s failed verification", w.name, w.kinds[id])
		}
	}
	return nil
}

// liveHeapMB is the heap in use after a collection, with the system under
// test and the workload's inputs still reachable.
func liveHeapMB(sys system, w *workload) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(w)
	return float64(m.HeapAlloc) / 1e6
}
