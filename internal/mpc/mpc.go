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
// runs on its own goroutine, reused across rounds (fanout.go), so the
// simulation is also genuinely parallel and a warm round starts none.
//
// Tuples move one way. On the send side, a round that only routes
// stored fragments is a Shuffle: each input names a fragment, a target
// stream and a Policy — hash, broadcast or a HyperCube grid
// (policy.go) — and one presized routine sends it. A round that
// computes what it sends, or routes by the server RNG, is a Round
// closure: it opens a Stream and sends tuple by tuple (Send, Broadcast)
// or hands over a computed fragment (SendByHash, BroadcastAll).
// ScatterByHash places initial data with the hash partition routine,
// so scatter and routing agree on every tuple's owner. On the delivery
// side every round commits through the cluster's Transport
// (transport.go); the in-process LocalTransport is the default and a
// Transport like any other.
//
// The routing and delivery paths are the simulator's hot loops: every
// tuple an algorithm communicates passes through each exactly once. So
// the routing loops move tuples in bulk, reading a fragment's
// row-major storage (relation.Relation.Flat) with no Relation call per
// row. ScatterRoundRobin is one strided copy per server into a
// fragment sized for its rows. ScatterByHash, SendByHash and the grid
// loop are counting sorts: one pass computes each row's owner (or base
// cell) and counts each destination, each destination's storage is
// lengthened once to its final size, and a second pass writes every
// row in place. A binary row is copied by two stores, about twice as
// fast as copy for so short a row. On an identity owner table a row's
// cells have distinct owners, and the grid loop marks none of them.
// Owners are relation.Hash64 values, whose FNV round stops at a value's
// last non-zero byte (a zero byte's step is a plain multiply) and
// stays bit-identical to the eight-byte loop.
//
// Delivery is built around three invariants that hold whatever the
// transport:
//
//  1. metering is exact — (L, r, C) are identical whatever the delivery
//     concurrency, because tuple counts are tracked per send;
//  2. delivery order is canonical — per destination, fragments land by
//     source server, then stream creation order, then send order, so
//     simulations are bit-for-bit reproducible;
//  3. round buffers are pooled — Out/stream slabs are reused across
//     rounds, whatever the next round names its streams, so
//     steady-state rounds allocate almost nothing.
package mpc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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
	// (capacity.go); an all-equal profile is stored as nil. Delivery
	// never reads it, but planners do: the hypercube descriptor routes
	// by capacity on a cluster that carries one, so a profile changes
	// what every server receives, not only how its load is judged.
	caps []float64
	// faults, when non-nil, routes every round through the recovery
	// driver (recovery.go).
	faults FaultInjector
	// err is the first round failure; see Err.
	err error
	// transport commits every round (see transport.go). It is never
	// nil: LocalTransport is the default. Everything observable —
	// fragments, metering, traces — is identical across conforming
	// transports.
	transport Transport
	// tracer, when non-nil, is a live sink: after each note and each
	// committed or failed round it receives what the ledger draws past
	// drawn. An untraced cluster keeps the same ledger.
	tracer *trace.Recorder
	drawn  mark
	// fan runs every server's work (fanout.go); one call at a time.
	fan fanout
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
		c.servers[i] = &Server{id: i, p: p, seed: seed, rels: map[string]*relation.Relation{}}
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

// ResetMetrics clears the ledger, notes included (e.g. to exclude
// setup); round indices restart at 0, in a live sink too.
func (c *Cluster) ResetMetrics() {
	c.metrics = NewMetrics(c.p)
	c.drawn = mark{}
}

// defaultTracer, when set, is attached to every cluster NewCluster
// creates. It exists for the CLIs (mpcbench -trace), which need to
// trace clusters built deep inside experiment drivers; libraries and
// tests should attach recorders per cluster with SetTracer.
var defaultTracer atomic.Pointer[trace.Recorder]

// SetDefaultTracer installs (or, with nil, removes) the process-wide
// default recorder picked up by subsequently created clusters.
func SetDefaultTracer(r *trace.Recorder) { defaultTracer.Store(r) }

// SetTracer attaches a live sink to the cluster; nil detaches it. As
// the ledger grows, r receives what Metrics.Events draws of it from now
// on.
func (c *Cluster) SetTracer(r *trace.Recorder) {
	c.tracer = r
	c.drawn = c.metrics.end()
}

// sink hands the live sink what the ledger draws since it last drew.
func (c *Cluster) sink() {
	if c.tracer == nil {
		return
	}
	var evs []trace.Event
	evs, c.drawn = c.metrics.draw(c.drawn)
	c.tracer.Append(evs...)
}

// Note records a phase marker in the ledger, before the next round. It
// keeps format and args, formatted only when a trace is drawn, so args
// must not change afterwards. Call it between rounds, never from a
// compute function: the ledger is not synchronized.
func (c *Cluster) Note(format string, args ...any) {
	c.note(note{format: format, args: args})
}

func (c *Cluster) note(n note) {
	if c.err != nil {
		return // the ledger of a failed cluster ends at its failed round
	}
	n.rounds = c.metrics.Rounds()
	c.metrics.notes = append(c.metrics.notes, n)
	c.sink()
}

// Server is one node of the simulated cluster. A server owns a set of
// named local relation fragments; between rounds, algorithms read and
// replace them freely.
type Server struct {
	id   int
	p    int
	seed int64 // the cluster's; Rng derives the server's source from it
	rels map[string]*relation.Relation
	rng  *rand.Rand // nil until the first Rng call
}

// ID returns the server's index in [0, p).
func (s *Server) ID() int { return s.id }

// P returns the cluster size.
func (s *Server) P() int { return s.p }

// Rng returns the server's deterministic random source, seeded from
// the cluster seed and the server id. It is made on the first call,
// since few algorithms draw from it. It must only be used from within
// this server's compute function.
func (s *Server) Rng() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(mixSeed(s.seed, s.id)))
	}
	return s.rng
}

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

// Len returns the size of the server's fragment of the named relation,
// 0 if it holds none: what a server contributes to an Exchange of sizes.
func (s *Server) Len(name string) int {
	if f := s.rels[name]; f != nil {
		return f.Len()
	}
	return 0
}

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
	handle Stream             // what Open returns, made once with the stream
}

// Out buffers the messages one server emits during a round. It is not
// safe for concurrent use; each server gets its own. Outs are pooled by
// the cluster: after delivery each stream's slabs are truncated
// (capacity retained) and parked in spare, and the next round's streams
// take them over in creation order, whatever their names. Rounds that
// name their streams afresh (GYM's per-level streams, the aggregate's)
// thus reuse the slabs of the round before.
type Out struct {
	p       int
	streams map[string]*stream
	order   []string  // stream creation order for deterministic delivery
	spare   []*stream // reset streams from prior rounds; the last is taken first
	// bases, counts and mark are the bulk sends' scratch, kept for the
	// next fragment: bases holds one entry per row (the grid loop's base
	// cell, SendByHash's owner), counts[:p] counts each destination's
	// rows and then holds its write cursor, counts[p:] holds the mark of
	// the last row the grid loop sent to each server, and mark is the
	// last mark handed out.
	bases  []int32
	counts []int
	mark   int
}

// seen returns the grid loop's per-server marks, making room for its
// per-destination counts beside them.
func (o *Out) seen() []int {
	if len(o.counts) < 2*o.p {
		o.counts = make([]int, 2*o.p)
	}
	return o.counts[o.p:]
}

// scratch returns a bulk send's per-row entries for a fragment of n
// rows and its per-destination counts, zeroed.
func (o *Out) scratch(n int) (rows []int32, counts []int) {
	o.seen() // sizes o.counts
	o.bases = slices.Grow(o.bases[:0], n)[:n]
	counts = o.counts[:o.p]
	clear(counts)
	return o.bases, counts
}

// reset parks every open stream for reuse, the last opened deepest, so
// the next round's first stream takes this round's first stream's
// slabs. Called by the cluster after delivery; the compute call that
// wrote the Out has returned.
func (o *Out) reset() {
	for i := len(o.order) - 1; i >= 0; i-- {
		st := o.streams[o.order[i]]
		for d := range st.perDst {
			st.perDst[d] = st.perDst[d][:0]
			st.counts[d] = 0
		}
		o.spare = append(o.spare, st)
		delete(o.streams, o.order[i])
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
		return &st.handle
	}
	for i, a := range attrs {
		for _, b := range attrs[:i] {
			if a == b {
				panic(fmt.Sprintf("mpc: stream %s opened with duplicate attribute %q", name, a))
			}
		}
	}
	if n := len(o.spare); n > 0 {
		// Reuse a parked stream's slabs; the name and schema are
		// whatever this round declares.
		st := o.spare[n-1]
		o.spare = o.spare[:n-1]
		st.name = name
		st.attrs = append(st.attrs[:0], attrs...)
		o.streams[name] = st
		o.order = append(o.order, name)
		return &st.handle
	}
	st := &stream{
		name:   name,
		attrs:  append([]string(nil), attrs...),
		perDst: make([][]relation.Value, o.p),
		counts: make([]int64, o.p),
	}
	st.handle = Stream{out: o, st: st}
	o.streams[name] = st
	o.order = append(o.order, name)
	return &st.handle
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
// Owner(row, cols, seed, p). It is the bulk form of one Send per row —
// per destination the tuples land in exactly that order, after whatever
// the stream already holds — and the routine a hash Policy runs:
// ScatterByHash places tuples with the same routine, so data scattered
// and data routed under equal (cols, seed) meet on one server.
// Callers take seed from HashSeed over the variables cols hold, so a
// shuffle onto the variables a relation is already laid out on keeps
// every tuple where it is.
func (s *Stream) SendByHash(frag *relation.Relation, cols []int, seed uint64) {
	s.checkArity(frag)
	if frag.Len() == 0 {
		return
	}
	dsts, pos := s.out.scratch(frag.Len())
	hashPartition(frag, cols, seed, dsts, pos)
	s.extend(pos)
	fill(s.st.perDst, pos, frag.Flat(), frag.Arity(), dsts)
}

// BroadcastAll replicates every tuple of frag to every server: the bulk
// form of one Broadcast per row, with the same per-destination order and
// the same metering (p copies, each charged to its receiver).
func (s *Stream) BroadcastAll(frag *relation.Relation) {
	st := s.st
	s.checkArity(frag)
	for d := range st.perDst {
		st.perDst[d] = append(st.perDst[d], frag.Flat()...)
		st.counts[d] += int64(frag.Len())
	}
}

// extend is the presize step of the bulk sends that route row by row,
// SendByHash and the grid loop of Cluster.Shuffle: it counts pos[d] more
// tuples to each destination d, lengthens d's slab to hold them, and
// sets pos[d] to the word where they start, for fill to write in place.
func (s *Stream) extend(pos []int) {
	k := len(s.st.attrs)
	for d, n := range pos {
		buf := s.st.perDst[d]
		pos[d] = len(buf)
		s.st.perDst[d] = slices.Grow(buf, n*k)[:len(buf)+n*k]
		s.st.counts[d] += int64(n)
	}
}

// fill is a counting sort's placing pass: row i of flat, of arity k,
// goes to dst[owners[i]] at word pos[owners[i]], which moves on by k.
// Rows thus land per destination in their order in flat.
func fill(dst [][]relation.Value, pos []int, flat []relation.Value, k int, owners []int32) {
	if k == 0 {
		return // nullary rows are counted, not stored
	}
	if k == 2 {
		for i, d := range owners {
			w, b := pos[d], dst[d]
			b[w], b[w+1] = flat[2*i], flat[2*i+1]
			pos[d] = w + 2
		}
		return
	}
	for i, d := range owners {
		w := pos[d]
		copy(dst[d][w:w+k], flat[i*k:i*k+k])
		pos[d] = w + k
	}
}

// checkArity checks once, for a whole fragment, what Send checks per
// tuple.
func (s *Stream) checkArity(frag *relation.Relation) {
	if frag.Arity() != len(s.st.attrs) {
		panic(fmt.Sprintf("mpc: stream %s send arity %d, want %d", s.st.name, frag.Arity(), len(s.st.attrs)))
	}
}

// HashSeed derives the seed of a hash shuffle from the query seed and
// the ordered names of the variables the shuffle hashes: it folds each
// name's length and bytes into seed with relation.Hash64. A placement is
// thereby named by (query seed, variables), not by the columns the
// variables sit in: two relations hashed on y under one query seed meet
// on one server whatever y's position in each, and a relation already
// laid out on y moves nothing when shuffled onto y again (arXiv
// 1412.4030, transferability).
func HashSeed(seed uint64, vars ...string) uint64 {
	for _, v := range vars {
		seed = relation.Hash64(relation.Value(len(v)), seed)
		for i := 0; i < len(v); i++ {
			seed = relation.Hash64(relation.Value(v[i]), seed)
		}
	}
	return seed
}

// Owner returns the server among p that owns row under (cols, seed):
// Bucket(HashRow(row, cols, seed), p). It is the per-row form of
// hashPartition, for routes that decide row by row.
func Owner(row []relation.Value, cols []int, seed uint64, p int) int {
	return relation.Bucket(relation.HashRow(row, cols, seed), p)
}

// hashPartition is the partition function of the whole system: it
// writes into dsts (one entry per row of rel) each row's Owner among
// len(counts) servers under (cols, seed), and adds one to counts for
// each row an owner gets. Scatter and in-round routing both go through
// it; that they agree is what makes co-location hold.
func hashPartition(rel *relation.Relation, cols []int, seed uint64, dsts []int32, counts []int) {
	p, flat, k := len(counts), rel.Flat(), rel.Arity()
	for i := range dsts {
		d := Owner(flat[i*k:i*k+k], cols, seed, p)
		dsts[i] = int32(d)
		counts[d]++
	}
}

// roundOuts returns the cluster's pooled per-server round buffers,
// creating them on first use.
func (c *Cluster) roundOuts() []*Out {
	if c.outs == nil {
		c.outs = make([]*Out, c.p)
		for i := range c.outs {
			c.outs[i] = &Out{p: c.p, streams: map[string]*stream{}}
		}
	}
	return c.outs
}

// Round executes one MPC round: every server runs compute on its own
// goroutine (reused, so a warm round starts none) while the caller
// waits, then all emitted messages are delivered and metered. The name
// labels the round in metric reports. Messages are delivered in a
// canonical order (by source server, then stream creation order, then
// send order) so simulations are bit-for-bit reproducible. A round that
// cannot commit sets Err; once it is set, Round runs nothing.
func (c *Cluster) Round(name string, compute func(s *Server, out *Out)) {
	if c.err != nil {
		return
	}
	outs := c.roundOuts()
	if i, r := c.fan.run(c.p, func(i int) { compute(c.servers[i], outs[i]) }); i >= 0 {
		c.err = fmt.Errorf("mpc: round %q: server %d panicked: %v", name, i, r)
	} else if c.faults != nil { // the chaos hooks' whole cost on the fault-free path
		c.err = c.deliverChaos(name, outs)
	} else {
		c.err = c.deliverCommit(name, outs)
	}
	// Every compute has returned: recycle the round buffers, so the
	// pool is never dirty.
	for _, o := range outs {
		o.reset()
	}
	c.sink()
}

// Err returns the first round failure, or nil if every round so far
// committed: a server's compute panic in Round or LocalStep, a delivery
// error wrapping the transport's, or a *RecoveryFailure. It is sticky,
// like a bufio.Writer's: after it Round, Shuffle and LocalStep run
// nothing, the ledger ends, and Gather refuses; Exchange records
// nothing and sums to zeros, so a vote on a failed cluster halts, and
// TotalLen and MaxFragLen still count what is stored. Only a driver
// whose loop or index depends on a round's result checks Err.
func (c *Cluster) Err() error { return c.err }

// LocalStep runs compute on every server, each on its own goroutine as
// in Round, without any communication; it does not count as a round.
// Use it for purely local phases such as final local joins. Like Round,
// it sets Err when a server panics and runs nothing once Err is set.
func (c *Cluster) LocalStep(compute func(s *Server)) {
	if c.err != nil {
		return
	}
	if i, r := c.fan.run(c.p, func(i int) { compute(c.servers[i]) }); i >= 0 {
		c.err = fmt.Errorf("mpc: local step: server %d panicked: %v", i, r)
	}
}

// ScatterRoundRobin distributes rel's tuples across servers round-robin,
// modelling the model's arbitrary initial placement (O(IN/p) per
// server). Initial placement is free: it is not metered. Server i's
// fragment is rows i, i+p, i+2p, …, copied in one strided pass into
// storage sized for them.
func (c *Cluster) ScatterRoundRobin(rel *relation.Relation) {
	n, k, flat := rel.Len(), rel.Arity(), rel.Flat()
	for i, srv := range c.servers {
		frag := rel.Empty()
		dst := frag.Extend((n + c.p - 1 - i) / c.p)
		if k == 2 {
			for w, r := 0, 2*i; w+1 < len(dst); w, r = w+2, r+2*c.p {
				dst[w], dst[w+1] = flat[r], flat[r+1]
			}
		} else {
			for w, r := 0, i*k; w < len(dst); w, r = w+k, r+c.p*k {
				copy(dst[w:w+k], flat[r:r+k])
			}
		}
		srv.Put(frag)
	}
}

// ScatterByHash distributes rel's tuples by hashing the named attributes
// with the given seed. Like all scatters, it is free (initial placement).
// It is a counting sort: hashPartition counts each server's rows, each
// fragment is sized for exactly its rows, and one fill pass places them.
func (c *Cluster) ScatterByHash(rel *relation.Relation, attrs []string, seed uint64) {
	dsts, pos := make([]int32, rel.Len()), make([]int, c.p)
	hashPartition(rel, rel.MustCols(attrs), seed, dsts, pos)
	bufs := make([][]relation.Value, c.p)
	for i, srv := range c.servers {
		frag := rel.Empty()
		bufs[i] = frag.Extend(pos[i])
		srv.Put(frag)
	}
	clear(pos)
	fill(bufs, pos, rel.Flat(), rel.Arity(), dsts)
}

// Gather collects the union of the named relation's fragments from all
// servers into one relation, sized up front so it allocates once. It is
// not metered: it is how the driver reads an answer off the cluster.
// Every fragment must carry the same schema; a mismatch means two
// different relations were stored under one name, and concatenating
// them would silently produce garbage. Gathering from a cluster whose
// Err is set panics: a fragment a failed round never delivered must not
// be read as empty, so a caller checks Err before it reads the answer.
func (c *Cluster) Gather(name string) *relation.Relation {
	if c.err != nil {
		panic(fmt.Sprintf("mpc: gather %q from a failed cluster: %v", name, c.err))
	}
	var first *relation.Relation
	words := 0
	for _, s := range c.servers {
		f := s.rels[name]
		if f == nil {
			continue
		}
		if first == nil {
			first = f
		} else if !slices.Equal(first.Attrs(), f.Attrs()) {
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
// (0 if absent everywhere). It reads the simulator's global view for
// free, so it reports a run and decides nothing: a decision reads
// sizes through Exchange.
func (c *Cluster) TotalLen(name string) int {
	total := 0
	for _, s := range c.servers {
		total += s.Len(name)
	}
	return total
}

// MaxFragLen returns the largest per-server fragment size of name.
func (c *Cluster) MaxFragLen(name string) int {
	m := 0
	for _, s := range c.servers {
		m = max(m, s.Len(name))
	}
	return m
}
