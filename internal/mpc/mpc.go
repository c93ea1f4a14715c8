// Package mpc implements the Massively Parallel Communication model of
// the tutorial (slides 5–20) as a deterministic in-process simulator: a
// shared-nothing cluster of p servers that computes in synchronous
// rounds, where each round every server runs local computation and then
// exchanges messages with any other server. The simulator's entire
// purpose is to *meter* the model's two cost parameters —
//
//	L: the maximum number of tuples received by any server in any round
//	r: the number of communication rounds
//
// plus the total communication C — because every claim in the tutorial
// is a statement about (L, r, C). Each server's per-round computation
// runs on its own goroutine, so the simulation is also genuinely
// parallel.
//
// Tuples move one way. On the send side a compute function opens a
// Stream and either sends tuple by tuple (Send, Broadcast — for emits it
// computes as it goes) or hands over a whole fragment: SendByHash is the
// way to hash-partition one, BroadcastAll the way to replicate one, and
// ScatterByHash places initial data with the same partition routine, so
// scatter and routing agree on every tuple's owner. Grow is the one
// presize routine: the bulk sends call it, and so may a caller that
// counts its computed emits per destination first. On the delivery side
// every round commits through the cluster's Transport (transport.go);
// the in-process LocalTransport is the default and a Transport like any
// other.
//
// The delivery path is the simulator's hot loop: every tuple an
// algorithm communicates passes through it exactly once. It is built
// around three invariants that hold whatever the transport:
//
//  1. metering is exact — (L, r, C) are identical whatever the delivery
//     concurrency, because tuple counts are tracked per send;
//  2. delivery order is canonical — per destination, fragments land by
//     source server, then stream creation order, then send order, so
//     simulations are bit-for-bit reproducible;
//  3. round buffers are pooled — Out/stream slabs are reused across
//     rounds, so steady-state rounds allocate almost nothing.
package mpc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mpcquery/internal/relation"
	"mpcquery/internal/trace"
)

// Cluster is a simulated shared-nothing cluster of p servers.
type Cluster struct {
	p       int
	seed    int64
	servers []*Server
	metrics *Metrics

	// outs holds the pooled per-server round buffers; they are created
	// on the first Round and reset (capacity retained) after each one.
	outs []*Out
	// caps, when non-nil, is the per-server capacity profile
	// (capacity.go). It never affects delivery — only planners and
	// metrics consult it — so attaching capacities cannot change what
	// a run computes, only how its load is apportioned and judged.
	caps []float64
	// faults, when non-nil, routes every round through the recovery
	// driver (recovery.go); failed poisons the cluster after a round
	// whose recovery exhausted its replay budget.
	faults FaultInjector
	failed *RecoveryFailure
	// transport commits every round (see transport.go). It is never
	// nil: LocalTransport is the default. Everything observable —
	// fragments, metering, traces — is identical across conforming
	// transports.
	transport Transport
	// tracer, when non-nil, records structured round events (see
	// internal/trace). The entire cost on an untraced cluster is the
	// nil checks in Round.
	tracer *trace.Recorder
}

// NewCluster creates a cluster of p servers. The seed drives all
// server-local randomness, making every simulation reproducible.
func NewCluster(p int, seed int64) *Cluster {
	if p < 1 {
		panic(fmt.Sprintf("mpc: cluster needs p ≥ 1, got %d", p))
	}
	c := &Cluster{p: p, seed: seed, metrics: NewMetrics(p), transport: LocalTransport(), tracer: defaultTracer.Load()}
	c.servers = make([]*Server, p)
	for i := range c.servers {
		c.servers[i] = &Server{
			id:   i,
			p:    p,
			rels: map[string]*relation.Relation{},
			rng:  rand.New(rand.NewSource(mixSeed(seed, i))),
		}
	}
	return c
}

// mixSeed derives server i's RNG seed from the cluster seed with a
// splitmix64 finalizer. The full finalizer matters: a single xor-shift
// of the golden-ratio multiple correlates the low bits of nearby
// (seed, i) pairs, which showed up as correlated routing decisions
// across servers.
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// P returns the number of servers.
func (c *Cluster) P() int { return c.p }

// Server returns server i.
func (c *Cluster) Server(i int) *Server { return c.servers[i] }

// Metrics returns the cluster's accumulated cost metrics.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// ResetMetrics clears accumulated metrics (e.g. to exclude setup).
// Round indices restart at 0, so a trace spanning a reset should also
// swap in a fresh recorder via SetTracer.
func (c *Cluster) ResetMetrics() { c.metrics = NewMetrics(c.p) }

// defaultTracer, when set, is attached to every cluster NewCluster
// creates. It exists for the CLIs (mpcbench -trace), which need to
// trace clusters built deep inside experiment drivers; libraries and
// tests should attach recorders per cluster with SetTracer.
var defaultTracer atomic.Pointer[trace.Recorder]

// SetDefaultTracer installs (or, with nil, removes) the process-wide
// default recorder picked up by subsequently created clusters.
func SetDefaultTracer(r *trace.Recorder) { defaultTracer.Store(r) }

// SetTracer attaches a trace recorder to the cluster; nil disables
// tracing. Attach before running rounds: consistency checks
// (testkit.AssertTraceConsistent) expect the trace to cover every
// metered round.
func (c *Cluster) SetTracer(r *trace.Recorder) { c.tracer = r }

// Tracer returns the attached recorder, or nil when tracing is off.
func (c *Cluster) Tracer() *trace.Recorder { return c.tracer }

// TraceEnabled implements trace.Annotator.
func (c *Cluster) TraceEnabled() bool { return c.tracer != nil }

// TraceAnnotate implements trace.Annotator: it records a phase marker
// stamped with the metric index the next round will get. Call it from
// driver code between rounds (algorithms use trace.Annotate), not from
// compute functions.
func (c *Cluster) TraceAnnotate(msg string) {
	if c.tracer != nil {
		c.tracer.Annotate(c.metrics.Rounds(), msg)
	}
}

// Server is one node of the simulated cluster. A server owns a set of
// named local relation fragments; between rounds, algorithms read and
// replace them freely.
type Server struct {
	id   int
	p    int
	rels map[string]*relation.Relation
	rng  *rand.Rand
}

// ID returns the server's index in [0, p).
func (s *Server) ID() int { return s.id }

// P returns the cluster size.
func (s *Server) P() int { return s.p }

// Rng returns the server's deterministic random source. It must only be
// used from within this server's compute function.
func (s *Server) Rng() *rand.Rand { return s.rng }

// Rel returns the named local relation, or nil if the server holds none.
func (s *Server) Rel(name string) *relation.Relation { return s.rels[name] }

// RelOrEmpty returns the named local relation, or a fresh empty relation
// with the given schema if the server holds none.
func (s *Server) RelOrEmpty(name string, attrs ...string) *relation.Relation {
	if r := s.rels[name]; r != nil {
		return r
	}
	return relation.New(name, attrs...)
}

// Put stores rel under its name, replacing any previous fragment.
func (s *Server) Put(rel *relation.Relation) { s.rels[rel.Name()] = rel }

// Delete removes the named local relation.
func (s *Server) Delete(name string) { delete(s.rels, name) }

// RelNames returns the names of the server's local relations, sorted.
func (s *Server) RelNames() []string {
	names := make([]string, 0, len(s.rels))
	for n := range s.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stream accumulates tuples sent to each destination under one relation
// name within a round. Tuple counts are tracked per send rather than
// derived as len(flat)/arity, so arity-0 streams (decision-query
// results) are delivered and metered like any other.
type stream struct {
	name   string
	attrs  []string
	perDst [][]relation.Value // perDst[dst] = flat rows
	counts []int64            // counts[dst] = tuples sent to dst
}

// Out buffers the messages one server emits during a round. It is not
// safe for concurrent use; each server gets its own. Outs are pooled by
// the cluster: after delivery each stream's slabs are truncated
// (capacity retained) and parked in spare for the next round.
type Out struct {
	p       int
	streams map[string]*stream
	order   []string           // stream creation order for deterministic delivery
	spare   map[string]*stream // reset streams from prior rounds, by name
}

// reset parks every open stream for reuse. Called by the cluster after
// delivery; the compute goroutine that wrote the Out has exited.
func (o *Out) reset() {
	for name, st := range o.streams {
		for d := range st.perDst {
			st.perDst[d] = st.perDst[d][:0]
			st.counts[d] = 0
		}
		if o.spare == nil {
			o.spare = map[string]*stream{}
		}
		o.spare[name] = st
		delete(o.streams, name)
	}
	o.order = o.order[:0]
}

// Stream is a typed channel for sending tuples of one relation to other
// servers within the current round.
type Stream struct {
	out *Out
	st  *stream
}

// Open declares (or reopens) an output relation with the given schema.
// All tuples sent on the stream are delivered into a relation of that
// name on each destination server when the round ends. Reopening a
// stream within a round requires the exact same schema — same arity and
// same attribute names — otherwise two different schemas would silently
// merge into one delivered relation. Duplicate attribute names are
// rejected here, at the call site, so a malformed schema fails the same
// way on every transport, before anything is delivered.
func (o *Out) Open(name string, attrs ...string) *Stream {
	if st, ok := o.streams[name]; ok {
		if len(st.attrs) != len(attrs) {
			panic(fmt.Sprintf("mpc: stream %s reopened with arity %d, want %d", name, len(attrs), len(st.attrs)))
		}
		for i, a := range attrs {
			if st.attrs[i] != a {
				panic(fmt.Sprintf("mpc: stream %s reopened with attribute %q at position %d, want %q",
					name, a, i, st.attrs[i]))
			}
		}
		return &Stream{out: o, st: st}
	}
	for i, a := range attrs {
		for _, b := range attrs[:i] {
			if a == b {
				panic(fmt.Sprintf("mpc: stream %s opened with duplicate attribute %q", name, a))
			}
		}
	}
	if st, ok := o.spare[name]; ok {
		// Reuse the parked stream's slabs; the schema is whatever this
		// round declares.
		delete(o.spare, name)
		st.attrs = append(st.attrs[:0], attrs...)
		o.streams[name] = st
		o.order = append(o.order, name)
		return &Stream{out: o, st: st}
	}
	st := &stream{
		name:   name,
		attrs:  append([]string(nil), attrs...),
		perDst: make([][]relation.Value, o.p),
		counts: make([]int64, o.p),
	}
	o.streams[name] = st
	o.order = append(o.order, name)
	return &Stream{out: o, st: st}
}

// Send routes one tuple to server dst.
func (s *Stream) Send(dst int, vals ...relation.Value) {
	if dst < 0 || dst >= s.out.p {
		panic(fmt.Sprintf("mpc: send to server %d of %d", dst, s.out.p))
	}
	if len(vals) != len(s.st.attrs) {
		panic(fmt.Sprintf("mpc: stream %s send arity %d, want %d", s.st.name, len(vals), len(s.st.attrs)))
	}
	s.st.perDst[dst] = append(s.st.perDst[dst], vals...)
	s.st.counts[dst]++
}

// SendRow routes one tuple (as a slice) to server dst.
func (s *Stream) SendRow(dst int, row []relation.Value) { s.Send(dst, row...) }

// Broadcast routes one tuple to every server. Each copy is metered at
// its receiver: broadcasting is p times as expensive as a single send,
// exactly as in the model.
func (s *Stream) Broadcast(vals ...relation.Value) {
	for dst := 0; dst < s.out.p; dst++ {
		s.Send(dst, vals...)
	}
}

// SendByHash hash-partitions frag onto the stream: row i goes to server
// Bucket(HashRow(row, cols, seed), p). It is the bulk form of one Send
// per row — per destination the tuples land in exactly that order, after
// whatever the stream already holds — and it is how algorithms partition
// a fragment: ScatterByHash places tuples with the same routine, so data
// scattered and data routed under equal (cols, seed) meet on one server.
func (s *Stream) SendByHash(frag *relation.Relation, cols []int, seed uint64) {
	st := s.st
	s.checkArity(frag)
	if frag.Len() == 0 {
		return
	}
	dsts, counts := hashPartition(frag, cols, seed, s.out.p)
	for d, n := range counts {
		s.Grow(d, n)
		st.counts[d] += int64(n)
	}
	for i, d := range dsts {
		st.perDst[d] = append(st.perDst[d], frag.Row(i)...)
	}
}

// BroadcastAll replicates every tuple of frag to every server: the bulk
// form of one Broadcast per row, with the same per-destination order and
// the same metering (p copies, each charged to its receiver).
func (s *Stream) BroadcastAll(frag *relation.Relation) {
	st := s.st
	s.checkArity(frag)
	n := frag.Len()
	for d := range st.perDst {
		s.Grow(d, n)
		for i := 0; i < n; i++ {
			st.perDst[d] = append(st.perDst[d], frag.Row(i)...)
		}
		st.counts[d] += int64(n)
	}
}

// Grow reserves room for n more tuples to dst, so the next n sends to
// dst append without reallocating. It is the one presize routine of
// every bulk send: SendByHash and BroadcastAll call it, and so does a
// caller that counts its destinations before sending row by row
// (HyperCube's grid shuffle).
func (s *Stream) Grow(dst, n int) {
	s.st.perDst[dst] = slices.Grow(s.st.perDst[dst], n*len(s.st.attrs))
}

// checkArity checks once, for a whole fragment, what Send checks per
// tuple.
func (s *Stream) checkArity(frag *relation.Relation) {
	if frag.Arity() != len(s.st.attrs) {
		panic(fmt.Sprintf("mpc: stream %s send arity %d, want %d", s.st.name, frag.Arity(), len(s.st.attrs)))
	}
}

// hashPartition is the partition function of the whole system: it
// assigns each row of rel its owner among p servers under (cols, seed)
// and counts the rows per owner. Scatter and in-round routing both go
// through it; that they agree is what makes co-location hold.
func hashPartition(rel *relation.Relation, cols []int, seed uint64, p int) (dsts []int32, counts []int) {
	dsts = make([]int32, rel.Len())
	counts = make([]int, p)
	for i := range dsts {
		d := relation.Bucket(relation.HashRow(rel.Row(i), cols, seed), p)
		dsts[i] = int32(d)
		counts[d]++
	}
	return dsts, counts
}

// roundOuts returns the cluster's pooled per-server round buffers,
// creating them on first use.
func (c *Cluster) roundOuts() []*Out {
	if c.outs == nil {
		c.outs = make([]*Out, c.p)
		for i := range c.outs {
			c.outs[i] = &Out{p: c.p, streams: map[string]*stream{}, spare: map[string]*stream{}}
		}
	}
	return c.outs
}

// Round executes one MPC round: every server runs compute on its own
// goroutine, then all emitted messages are delivered and metered. The
// name labels the round in metric reports. Messages are delivered in a
// canonical order (by source server, then stream creation order, then
// send order) so simulations are bit-for-bit reproducible.
func (c *Cluster) Round(name string, compute func(s *Server, out *Out)) {
	c.checkHealthy("Round")
	if c.tracer != nil {
		c.tracer.RoundStart(c.metrics.Rounds(), name)
	}
	outs := c.roundOuts()
	var wg sync.WaitGroup
	panics := make([]any, c.p)
	for i := 0; i < c.p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
				}
			}()
			compute(c.servers[i], outs[i])
		}(i)
	}
	wg.Wait()
	// All compute goroutines have exited; recycle the round buffers on
	// every exit path (including panics) so the pool is never dirty.
	defer func() {
		for _, o := range outs {
			o.reset()
		}
	}()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpc: round %q: server %d panicked: %v", name, i, p))
		}
	}
	c.deliver(name, outs)
	if c.tracer != nil {
		c.traceRound(name, outs)
	}
}

// traceRound records the committed round's communication ledger: per
// (source, stream) send totals, per (stream, destination) recv totals
// with fan-in, the recovery summary when the round ran under fault
// injection, and the skew/round_end closing events. It runs on the
// driver after delivery, before the round buffers are recycled, and is
// transport-agnostic: it reads the outs (identical whichever transport
// delivered them) and the just-recorded RoundStat.
func (c *Cluster) traceRound(name string, outs []*Out) {
	tr := c.tracer
	round := c.metrics.Rounds() - 1
	st := &c.metrics.stats[len(c.metrics.stats)-1]
	// Send totals, in canonical (source, stream creation) order.
	for src := 0; src < c.p; src++ {
		for _, stName := range outs[src].order {
			s := outs[src].streams[stName]
			var tuples, words int64
			for dst := 0; dst < c.p; dst++ {
				tuples += s.counts[dst]
				words += int64(len(s.perDst[dst]))
			}
			if tuples > 0 {
				tr.Send(round, stName, src, tuples, words)
			}
		}
	}
	// Recv totals: aggregate fan-in per stream name across sources, in
	// first-appearance order (deterministic, like delivery itself).
	type fanIn struct {
		tuples, words []int64
		frags         []int
	}
	var order []string
	aggs := map[string]*fanIn{}
	for src := 0; src < c.p; src++ {
		for _, stName := range outs[src].order {
			a := aggs[stName]
			if a == nil {
				a = &fanIn{tuples: make([]int64, c.p), words: make([]int64, c.p), frags: make([]int, c.p)}
				aggs[stName] = a
				order = append(order, stName)
			}
			s := outs[src].streams[stName]
			for dst := 0; dst < c.p; dst++ {
				if s.counts[dst] > 0 {
					a.tuples[dst] += s.counts[dst]
					a.words[dst] += int64(len(s.perDst[dst]))
					a.frags[dst]++
				}
			}
		}
	}
	for _, stName := range order {
		a := aggs[stName]
		for dst := 0; dst < c.p; dst++ {
			if a.frags[dst] > 0 {
				tr.Recv(round, stName, dst, a.tuples[dst], a.words[dst], a.frags[dst])
			}
		}
	}
	if cs := st.Chaos; cs != nil {
		tr.ChaosSummary(round, cs.Attempts, cs.Dropped, cs.Duplicated, cs.Redelivered, cs.Crashes, cs.BackoffUnits)
	}
	tr.RoundEnd(round, name, st.Recv, st.RecvWords)
}

// deliver dispatches a round's delivery: through the recovery driver
// when a fault injector is attached, straight to the commit otherwise.
// The injector check is the entire cost of the chaos hooks on the
// fault-free path.
func (c *Cluster) deliver(name string, outs []*Out) {
	if c.faults != nil {
		c.deliverChaos(name, outs)
		return
	}
	c.deliverCommit(name, outs)
}

func attrsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LocalStep runs compute on every server (in parallel) without any
// communication; it does not count as a round. Use it for purely local
// phases such as final local joins.
func (c *Cluster) LocalStep(compute func(s *Server)) {
	var wg sync.WaitGroup
	panics := make([]any, c.p)
	for i := 0; i < c.p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[i] = r
				}
			}()
			compute(c.servers[i])
		}(i)
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpc: local step: server %d panicked: %v", i, p))
		}
	}
}

// ScatterRoundRobin distributes rel's tuples across servers round-robin,
// modelling the model's arbitrary initial placement (O(IN/p) per
// server). Initial placement is free: it is not metered.
func (c *Cluster) ScatterRoundRobin(rel *relation.Relation) {
	n := rel.Len()
	counts := make([]int, c.p)
	for i := range counts {
		counts[i] = (n + c.p - 1 - i) / c.p
	}
	frags := c.putFragments(rel, counts)
	for i := 0; i < n; i++ {
		frags[i%c.p].AppendRow(rel.Row(i))
	}
}

// ScatterByHash distributes rel's tuples by hashing the named attributes
// with the given seed. Like all scatters, it is free (initial placement).
func (c *Cluster) ScatterByHash(rel *relation.Relation, attrs []string, seed uint64) {
	dsts, counts := hashPartition(rel, rel.MustCols(attrs), seed, c.p)
	frags := c.putFragments(rel, counts)
	for i, d := range dsts {
		frags[d].AppendRow(rel.Row(i))
	}
}

// putFragments stores an empty fragment of rel on every server, sized
// for exactly counts[i] tuples on server i, and returns them for the
// scatter to fill.
func (c *Cluster) putFragments(rel *relation.Relation, counts []int) []*relation.Relation {
	frags := make([]*relation.Relation, c.p)
	for i := range frags {
		frags[i] = rel.Empty()
		frags[i].Grow(counts[i] * rel.Arity())
		c.servers[i].Put(frags[i])
	}
	return frags
}

// Gather collects the union of the named relation's fragments from all
// servers into one relation, sized up front so it allocates once. It is
// not metered: it is how the driver reads an answer off the cluster.
// Every fragment must carry the same schema; a mismatch means two
// different relations were stored under one name, and concatenating
// them would silently produce garbage. Gathering from a cluster
// poisoned by a failed recovery panics: a fragment lost to an
// unrecovered fault must not be read as empty.
func (c *Cluster) Gather(name string) *relation.Relation {
	c.checkHealthy("Gather")
	var first *relation.Relation
	words := 0
	for _, s := range c.servers {
		f := s.rels[name]
		if f == nil {
			continue
		}
		if first == nil {
			first = f
		} else if !attrsEqual(first.Attrs(), f.Attrs()) {
			panic(fmt.Sprintf("mpc: gather %q: server %d fragment has attrs %v, earlier fragments have %v",
				name, s.id, f.Attrs(), first.Attrs()))
		}
		words += f.Words()
	}
	if first == nil {
		panic(fmt.Sprintf("mpc: gather: no server holds relation %q", name))
	}
	out := relation.New(name, first.Attrs()...)
	out.Grow(words)
	for _, s := range c.servers {
		if f := s.rels[name]; f != nil {
			out.AppendAll(f)
		}
	}
	return out
}

// DeleteAll removes the named relation from every server.
func (c *Cluster) DeleteAll(name string) {
	for _, s := range c.servers {
		s.Delete(name)
	}
}

// TotalLen sums the sizes of the named relation fragment across servers
// (0 if absent everywhere). Like Gather, it panics on a cluster
// poisoned by a failed recovery instead of counting lost fragments as
// empty.
func (c *Cluster) TotalLen(name string) int {
	c.checkHealthy("TotalLen")
	total := 0
	for _, s := range c.servers {
		if f := s.rels[name]; f != nil {
			total += f.Len()
		}
	}
	return total
}

// MaxFragLen returns the largest per-server fragment size of name. It
// panics on a cluster poisoned by a failed recovery.
func (c *Cluster) MaxFragLen(name string) int {
	c.checkHealthy("MaxFragLen")
	m := 0
	for _, s := range c.servers {
		if f := s.rels[name]; f != nil && f.Len() > m {
			m = f.Len()
		}
	}
	return m
}
