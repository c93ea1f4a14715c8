// The default transport: in-process delivery between goroutines.

package mpc

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mpcquery/internal/relation"
)

// localTransport moves a round's fragments between goroutines of one
// process. Destinations are independent — server dst's inbox is the
// concatenation of fragments addressed to dst, in canonical order — so
// delivery fans out across worker goroutines, each owning a disjoint
// set of destinations.
type localTransport struct {
	// workers is the delivery worker count; 0 means min(p, GOMAXPROCS).
	// Only tests set it (export_test.go), to exercise concurrent
	// delivery on a single-CPU machine.
	workers int
}

// LocalTransport returns the in-process transport every new cluster
// starts with.
func LocalTransport() Transport { return localTransport{} }

func (localTransport) Close() error { return nil }

// Deliver lands the round with exact metering. It reads the round
// buffers directly instead of going through Land: one reservation per
// receiving relation and one bulk copy per fragment.
func (t localTransport) Deliver(v *RoundView) error {
	c, outs := v.c, v.outs
	workers := t.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > c.p {
		workers = c.p
	}
	// Plan the round before moving a single tuple. The prepass resolves
	// stream handles once per (source, stream) and, once per distinct
	// stream name, sums per-destination tuple/word totals, creates every
	// receiving relation, and presizes it with one exact reservation.
	// That leaves the per-fragment hot loop as pure metering plus one
	// bulk copy — no map lookups, no append growth. At p=256 a shuffle
	// round has 65536 fragments but typically a handful of names.
	plans := map[string]*deliverPlan{}
	resolved := make([][]deliverStream, c.p)
	for src := 0; src < c.p; src++ {
		out := outs[src]
		sts := make([]deliverStream, len(out.order))
		for i, stName := range out.order {
			st := out.streams[stName]
			plan, ok := plans[stName]
			if !ok {
				plan = &deliverPlan{
					attrs:  st.attrs,
					rels:   make([]*relation.Relation, c.p),
					tuples: make([]int64, c.p),
					words:  make([]int, c.p),
				}
				for dst := range plan.rels {
					plan.rels[dst] = c.servers[dst].rels[stName]
				}
				plans[stName] = plan
			}
			for dst := 0; dst < c.p; dst++ {
				plan.tuples[dst] += st.counts[dst]
				plan.words[dst] += len(st.perDst[dst])
			}
			sts[i] = deliverStream{st: st, dstRels: plan.rels}
		}
		resolved[src] = sts
	}
	for stName, plan := range plans {
		for dst := 0; dst < c.p; dst++ {
			if plan.tuples[dst] == 0 {
				continue
			}
			if plan.rels[dst] == nil {
				plan.rels[dst] = relation.New(stName, plan.attrs...)
				c.servers[dst].rels[stName] = plan.rels[dst]
			}
			plan.rels[dst].Grow(plan.words[dst])
		}
	}
	if workers <= 1 {
		for src := 0; src < c.p; src++ {
			// Source-major: cache-friendly slab walks, and per
			// destination the same canonical order as the concurrent
			// path.
			for i := range resolved[src] {
				ds := &resolved[src][i]
				for dst := 0; dst < c.p; dst++ {
					ds.deliverTo(dst, v.recv, v.recvWords)
				}
			}
		}
		return nil
	}
	var next atomic.Int64
	next.Store(-1)
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			for {
				dst := int(next.Add(1))
				if dst >= c.p {
					return
				}
				// Only dst's inbox, relations and metric slots are
				// touched, so workers on distinct dst never race.
				for src := 0; src < c.p; src++ {
					for i := range resolved[src] {
						resolved[src][i].deliverTo(dst, v.recv, v.recvWords)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return nil
}

// deliverPlan is the prepass result for one stream name: the shared
// schema, per-destination totals, and the destination relations
// (created and presized before delivery starts).
type deliverPlan struct {
	attrs  []string
	rels   []*relation.Relation
	tuples []int64
	words  []int
}

// deliverStream pairs a source's stream with the shared per-destination
// relation array for its name. dstRels is shared across sources and
// workers; after the prepass it is read-only, and entry dst is only
// appended to by dst's deliverer.
type deliverStream struct {
	st      *stream
	dstRels []*relation.Relation
}

// deliverTo lands this stream's dst fragment: meter it and append the
// slab in one copy. The prepass guarantees dstRels[dst] exists whenever
// the fragment is non-empty.
func (ds *deliverStream) deliverTo(dst int, recv, recvWords []int64) {
	st := ds.st
	n := st.counts[dst]
	if n == 0 {
		return
	}
	flat := st.perDst[dst]
	recv[dst] += n
	recvWords[dst] += int64(len(flat))
	ds.dstRels[dst].AppendFlat(flat, int(n))
}
