package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The calibration kernel defines the reference machine: one on which the
// kernel takes calRefWallMS of wall time and calRefWallMS per goroutine of CPU
// time. Every timing the benchmark reports is scaled to that machine.
const (
	calRefWallMS = 100.0
	calBufWords  = (4 << 20) / 8 // 4 MiB per goroutine
	calSteps     = 4_000_000
)

// calSample is one run of the calibration kernel.
type calSample struct {
	wallMS float64
	cpuMS  float64
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrate runs the kernel on GOMAXPROCS goroutines: each fills a freshly
// allocated 4 MiB buffer and then does a fixed-length dependent hash walk
// over it, so the time mixes arithmetic with cache and memory latency the
// way the product's hash joins do. The buffers are garbage on return; callers
// run runtime.GC before timing anything so the product never sees them live.
func calibrate() calSample {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	sink := make([]uint64, n)
	var wg sync.WaitGroup
	cpu0 := cpuNow()
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sink[g] = hashWalk(uint64(g) + 1)
		}(g)
	}
	wg.Wait()
	wall := time.Since(t0)
	cpu := cpuNow() - cpu0
	runtime.KeepAlive(sink)
	return calSample{wallMS: ms(wall), cpuMS: ms(cpu)}
}

func hashWalk(seed uint64) uint64 {
	buf := make([]uint64, calBufWords)
	x := seed
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = x
	}
	const mask = calBufWords - 1
	for i := 0; i < calSteps; i++ {
		j := x & mask
		x = (x ^ buf[j]) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		buf[j] = x
	}
	return x
}

// calWindow is how many calibrations around a block its factor is the median
// of: the two before it and the two after it. One calibration is itself noisy
// (its buffers are fresh pages, its two goroutines share a cache with
// whatever else the host runs), and a speed regime lasts many blocks, so the
// median of four tracks the regime and drops the outlier.
const calWindow = 4

// factorsAt returns the factors that scale wall and CPU time measured between
// cals[i] and cals[i+1] to the reference machine. CPU time is scaled by the
// kernel's CPU time, not its wall time: when another process takes a core the
// kernel's wall time grows but the CPU the product needs per op does not.
// mixed reports that the window straddles a change of speed — its two central
// values are more than 15 % apart — so no one factor fits what ran inside it.
func factorsAt(cals []calSample, i int) (wall, cpu float64, mixed bool) {
	lo, hi := i+1-calWindow/2, i+1+calWindow/2
	if lo < 0 {
		lo = 0
	}
	if hi > len(cals) {
		hi = len(cals)
	}
	var w, c []float64
	for _, s := range cals[lo:hi] {
		w = append(w, s.wallMS)
		c = append(c, s.cpuMS)
	}
	sort.Float64s(w)
	if n := len(w); n%2 == 0 {
		mixed = w[n/2]-w[n/2-1] > 0.15*median(w)
	}
	refCPU := calRefWallMS * float64(runtime.GOMAXPROCS(0))
	return calRefWallMS / median(w), refCPU / median(c), mixed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
