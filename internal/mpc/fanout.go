package mpc

import (
	"sync"
	"sync/atomic"
)

// fanout is the state of one call of run. It lives on the Cluster, whose
// calls never overlap, so a warm call allocates nothing for it.
type fanout struct {
	f      func(i int)
	wg     sync.WaitGroup
	panics []any // per index, what its last call panicked with, or nil
}

// task is index i of the call fo.
type task struct {
	fo *fanout
	i  int
}

// Workers are process-wide and never exit; between tasks each waits on
// the unbuffered tasks channel. idle counts the workers that will take
// another task: a worker counts itself before it signals done, so a call
// that follows a call finds every worker it needs idle. workers counts
// the workers started, the only goroutines this package starts.
var (
	tasks   = make(chan task)
	idle    atomic.Int64
	workers atomic.Int64
)

// run calls f(0), …, f(n−1), each on its own goroutine, and reports the
// lowest index that panicked with its value (-1 when none did). Each
// index is in a worker's hands before run waits: an idle one's, or a new
// one's when none is idle, so the cache never outgrows the peak number
// of calls running at once.
func (fo *fanout) run(n int, f func(i int)) (int, any) {
	if len(fo.panics) < n {
		fo.panics = make([]any, n)
	}
	fo.f = f
	fo.wg.Add(n)
	for i := 0; i < n; i++ {
		if claimIdle() {
			tasks <- task{fo, i}
		} else {
			workers.Add(1)
			go work(task{fo, i})
		}
	}
	fo.wg.Wait()
	fo.f = nil
	for i, r := range fo.panics[:n] {
		if r != nil {
			return i, r
		}
	}
	return -1, nil
}

// claimIdle takes one idle worker off the count, if there is one.
func claimIdle() bool {
	n := idle.Load()
	for n > 0 && !idle.CompareAndSwap(n, n-1) {
		n = idle.Load()
	}
	return n > 0
}

// work runs t, then every task handed to it.
func work(t task) {
	for {
		t.fo.call(t.i)
		idle.Add(1)
		t.fo.wg.Done()
		t = <-tasks
	}
}

// call runs f(i), recording a panic instead of letting it end the worker.
func (fo *fanout) call(i int) {
	defer func() { fo.panics[i] = recover() }()
	fo.f(i)
}
