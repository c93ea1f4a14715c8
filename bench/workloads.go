package main

import (
	"fmt"
	"math/rand"
	"time"

	"mpcquery/internal/relation"
)

// engineSeed is the product's own default seed (mpcserve -seed, mpcrun -seed).
// The benchmark's --seed decides the data and the op order, never this.
const engineSeed = 1

// opObs is what the harness observes of one op.
type opObs struct {
	dur  time.Duration // wall time of the front-door call
	cpu  time.Duration // process CPU time over the same interval
	cost cost
	ok   bool // no error, not shed, output verified
}

// system is one started system under test.
type system interface {
	// exec runs op id through the front door, verifies its output, and — when
	// tr is non-nil — records the call and a step-by-step replay as spans.
	exec(id int, tr *tracer) opObs
	// close releases what start acquired.
	close()
}

// workload is one set of inputs plus the fixed op order to run them in.
type workload struct {
	name string
	// kinds names each op id's kind; several ids may share a kind, and
	// kindOf maps each id to the first id of its kind, under which the ids'
	// latencies are pooled.
	kinds  []string
	kindOf []int32
	// cycle is the multiset of op ids one block draws its order from; a block
	// is blockCycles shuffled copies of it, so every block does the same work.
	cycle       []int
	blockCycles int
	// interleave, when non-nil, is an op inserted before every
	// interleaveEvery-th op of a block; it returns the id to run.
	interleave      func(n int) int
	interleaveEvery int
	seed            int64
	datagenS        float64
	env             *probeEnv
	// start performs one cold start: construct the system, load its data, run
	// every distinct op once.
	start func() (system, error)
}

// sequence returns the op ids of timed block b. It depends on the seed, the
// workload and b only.
func (w *workload) sequence(b int) []int {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(b)*7919 + 17))
	var seq []int
	n := 0
	for c := 0; c < w.blockCycles; c++ {
		order := rng.Perm(len(w.cycle))
		for _, i := range order {
			if w.interleave != nil && len(seq)%w.interleaveEvery == 0 {
				seq = append(seq, w.interleave(n))
				n++
			}
			seq = append(seq, w.cycle[i])
		}
	}
	return seq
}

// workloadNames lists the workloads in reporting order.
var workloadNames = []string{"serve_hot", "serve_churn", "batch_oneround", "batch_multiround", "tcp_shuffle"}

// buildWorkload generates the named workload's inputs from seed, checks every
// op kind against its oracle, and returns the workload ready to start. scale
// shrinks the inputs (1 = the frozen benchmark sizes; tests use less).
func buildWorkload(name string, seed int64, scale float64) (*workload, error) {
	t0 := time.Now()
	var (
		w   *workload
		err error
	)
	switch name {
	case "serve_hot":
		w, err = buildServe(name, seed, scale, false)
	case "serve_churn":
		w, err = buildServe(name, seed, scale, true)
	case "batch_oneround", "batch_multiround", "tcp_shuffle":
		w, err = buildBatch(name, seed, scale)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	w.name, w.seed = name, seed
	first := map[string]int32{}
	for id, kind := range w.kinds {
		if _, seen := first[kind]; !seen {
			first[kind] = int32(id)
		}
		w.kindOf = append(w.kindOf, first[kind])
	}
	w.datagenS = time.Since(t0).Seconds()
	return w, nil
}

func scaled(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 8 {
		s = 8
	}
	return s
}

// probeEnv is the data the per-layer probes run on: the workload's own
// relations, so that every layer is measured at the sizes the workload feeds
// it. R(x,y), S(y,z), T(z,w) chain on y and z and close a triangle when T is
// read as T(z,x); E is a directed graph.
type probeEnv struct {
	p          int
	r, s, t, e *relation.Relation
}
