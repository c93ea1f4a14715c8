// The transport layer: how a committed round's tuples physically move.
//
// Everything above this file — algorithms, the planner, the chaos
// recovery driver, the trace layer — speaks in rounds of fragments: one
// fragment is everything one source server sent one destination on one
// stream. The Transport interface is the seam between that model and
// the machinery that moves the bytes, and it is the only delivery path:
// every round of every cluster commits through deliverCommit, which
// plans the round once and hands a RoundView to the cluster's
// transport. The default, LocalTransport (local.go), moves
// fragments between goroutines in one process and is a Transport like
// any other; internal/mpcnet ships the same fragments over real TCP
// sockets. Everything observable — delivered fragment contents and
// order, the (L, r, C) metering, trace events — is a pure function of
// the round's outs, so any conforming transport produces bit-identical
// simulations.
//
// Before Deliver is called, the commit plans the round: it sums the
// tuples every stream name sends each destination, creates every
// receiving relation, and presizes it with one exact reservation, so
// every transport lands into storage that never grows. Land is checked
// against that plan.
//
// A conforming Transport must:
//
//  1. land every non-empty fragment exactly once (chunking one fragment
//     into several consecutive Land calls is allowed); Land refuses a
//     stream the round did not send and tuples beyond the plan, and the
//     commit fails a round with any planned tuple left unlanded;
//  2. per destination, land fragments in canonical order — source
//     server ascending, then stream creation order, then send order —
//     and never call Land concurrently for the same destination;
//  3. not retain fragment slices after Deliver returns: the round
//     buffers they view are pooled and reused by the next round.
//
// Schema validation is not a transport's job. Out.Open rejects a
// malformed schema where it is declared; the commit's plan rejects a
// round whose sources disagree on a stream's schema, or whose stream
// would land into an existing relation of another schema, before
// Deliver is called, so a malformed round fails identically on every
// backend and before any tuple moves.
//
// Delivered fragments are isolated: Land copies tuples into the
// destination relation, so no two servers ever share tuple storage and
// mutating a received fragment cannot affect another server, the source
// buffers, or a later round. transport_test.go and aliasing_test.go pin
// that for every transport.

package mpc

import (
	"fmt"
	"slices"

	"mpcquery/internal/relation"
)

// Transport moves one round's fragments into the destination servers.
// Implementations are attached with (*Cluster).SetTransport and must
// satisfy the contract documented at the top of this file.
type Transport interface {
	// Deliver ships every fragment of the round described by v and
	// lands each exactly once via v.Land. A non-nil error, or a round
	// left short of its plan, fails the round unmetered, as the
	// cluster's Err: partial delivery leaves server state inconsistent
	// with the metering.
	Deliver(v *RoundView) error
	// Close releases transport resources (connections, workers). The
	// cluster never calls Close; the transport's creator owns it.
	Close() error
}

// SetTransport routes round delivery through t; nil restores the
// default, LocalTransport. Attach before running rounds. The cluster
// does not close the transport — its creator does, after the last
// cluster using it is done.
func (c *Cluster) SetTransport(t Transport) {
	if t == nil {
		t = LocalTransport()
	}
	c.transport = t
}

// deliverCommit commits a round: it plans the round's landings (which
// validates its streams and presizes every receiver), delivers through
// the cluster's transport, checks that the transport landed exactly the
// plan, and records the metered load. The committed state is a pure
// function of the outs, so transports are interchangeable without
// observable effect. An error leaves the round uncommitted and becomes
// the cluster's Err.
func (c *Cluster) deliverCommit(name string, outs []*Out) error {
	v, err := c.planRound(name, outs)
	if err != nil {
		return err
	}
	if err := c.transport.Deliver(v); err != nil {
		return fmt.Errorf("mpc: round %q: transport delivery failed: %w", name, err)
	}
	if err := v.checkLanded(); err != nil {
		return err
	}
	c.metrics.stats = append(c.metrics.stats, v.stat)
	return nil
}

// RoundView is the transport-facing view of one round: an enumeration
// of the round's fragments in canonical order, plus the Land sink that
// commits them into the planned receivers. A view is only valid during
// the Deliver call it was created for.
type RoundView struct {
	c    *Cluster
	outs []*Out
	// The landing plan: one landing per stream name in first-appearance
	// order, the index Land resolves names through, and every (source,
	// stream) of the round in canonical order.
	landings []landing
	byName   map[string]int
	streams  []sourceStream
	// stat is the round's ledger and carries its name; a function of
	// the outs alone, the commit records it once the transport has
	// landed the plan.
	stat RoundStat
}

// landing is the plan for one stream name: its schema and, per
// destination, the receiving relation and the tuples still to land.
type landing struct {
	name  string
	attrs []string
	dsts  []receiver
}

// receiver is one destination's side of a landing: the tuples still
// to land, and the words and non-empty source fragments planned. rel is
// nil only where nothing is planned and the server holds no relation of
// the name.
type receiver struct {
	rel   *relation.Relation
	left  int64
	words int64
	frags int32
}

// sourceStream pairs one source's stream with the index of its name's
// landing and the tuples and words it sends.
type sourceStream struct {
	st            *stream
	l             int
	src           int32
	tuples, words int64
}

// planRound builds the round's landing plan and its ledger. The first
// pass resolves every (source, stream) to its name's landing, checks
// that all sources declare a name with one schema, and sums what each
// source stream sends, what each receiver is planned to get, and the
// tuples whose destination is their source (RoundStat.Self); the second
// checks every existing receiving relation's schema. Only then, with
// the round known to be well-formed, does the third sum the metered
// load per destination, create each missing receiver and presize every
// receiver with one exact reservation, so whatever the transport,
// tuples land into storage that never grows. Last, the non-empty sends
// and receives are copied into the ledger in the order the trace lists
// them. At p=256 a shuffle round has 65536 fragments but typically a
// handful of names.
func (c *Cluster) planRound(name string, outs []*Out) (*RoundView, error) {
	n := 0
	for _, out := range outs {
		n += len(out.order)
	}
	load := make([]int64, 2*c.p)
	v := &RoundView{
		c: c, outs: outs,
		byName:  make(map[string]int),
		streams: make([]sourceStream, 0, n),
		stat:    RoundStat{Name: name, Recv: load[:c.p:c.p], RecvWords: load[c.p:]},
	}
	sends := 0
	for src, out := range outs {
		for _, stName := range out.order {
			st := out.streams[stName]
			i, ok := v.byName[stName]
			if !ok {
				i = len(v.landings)
				v.byName[stName] = i
				v.landings = append(v.landings, landing{name: stName, attrs: st.attrs, dsts: make([]receiver, c.p)})
			}
			l := &v.landings[i]
			if !slices.Equal(l.attrs, st.attrs) {
				return nil, fmt.Errorf("mpc: round %q stream %s declared with attrs %v by one server and %v by another",
					name, stName, l.attrs, st.attrs)
			}
			s := sourceStream{st: st, l: i, src: int32(src)}
			for dst, k := range st.counts {
				if k == 0 {
					continue
				}
				w := int64(len(st.perDst[dst]))
				r := &l.dsts[dst]
				r.left += k
				r.words += w
				r.frags++
				s.tuples += k
				s.words += w
			}
			if s.tuples > 0 {
				sends++
			}
			v.stat.Self += st.counts[src]
			v.streams = append(v.streams, s)
		}
	}
	for i := range v.landings {
		l := &v.landings[i]
		for dst := range l.dsts {
			rel := c.servers[dst].rels[l.name]
			if rel != nil && !slices.Equal(rel.Attrs(), l.attrs) {
				return nil, fmt.Errorf("mpc: round %q delivers %s with attrs %v into existing attrs %v",
					name, l.name, l.attrs, rel.Attrs())
			}
			l.dsts[dst].rel = rel
		}
	}
	recvs := 0
	for i := range v.landings {
		l := &v.landings[i]
		for dst := range l.dsts {
			r := &l.dsts[dst]
			if r.left == 0 {
				continue
			}
			recvs++
			v.stat.Recv[dst] += r.left
			v.stat.RecvWords[dst] += r.words
			if r.rel == nil {
				r.rel = relation.New(l.name, l.attrs...)
				c.servers[dst].rels[l.name] = r.rel
			}
			r.rel.Grow(int(r.left) * len(l.attrs))
		}
	}
	ledger := make([]StreamLoad, 0, sends+recvs)
	for _, s := range v.streams {
		if s.tuples > 0 {
			ledger = append(ledger, StreamLoad{Stream: s.st.name, Tuples: s.tuples, Words: s.words, Server: s.src})
		}
	}
	for i := range v.landings {
		l := &v.landings[i]
		for dst, r := range l.dsts {
			if r.left > 0 {
				ledger = append(ledger, StreamLoad{Stream: l.name, Tuples: r.left, Words: r.words, Server: int32(dst), Frags: r.frags})
			}
		}
	}
	v.stat.StreamSends, v.stat.StreamRecvs = ledger[:sends:sends], ledger[sends:]
	return v, nil
}

// checkLanded enforces rule 1 of the contract. Land refuses anything
// beyond the plan, so a tuple still left is one the transport never
// landed.
func (v *RoundView) checkLanded() error {
	for i := range v.landings {
		l := &v.landings[i]
		for dst, r := range l.dsts {
			if r.left != 0 {
				return fmt.Errorf("mpc: round %q stream %s: server %d is %d tuples short of the plan",
					v.stat.Name, l.name, dst, r.left)
			}
		}
	}
	return nil
}

// P returns the cluster size; destinations and sources are in [0, P).
func (v *RoundView) P() int { return v.c.p }

// Streams returns how many streams source src opened this round.
func (v *RoundView) Streams(src int) int { return len(v.outs[src].order) }

// Stream returns source src's i-th stream in creation order.
func (v *RoundView) Stream(src, i int) StreamView {
	return StreamView{st: v.outs[src].streams[v.outs[src].order[i]]}
}

// StreamView is a read-only view of one source's stream: its schema and
// its per-destination fragments.
type StreamView struct{ st *stream }

// Name returns the stream's relation name.
func (sv StreamView) Name() string { return sv.st.name }

// Attrs returns the stream's schema. Read-only; do not mutate.
func (sv StreamView) Attrs() []string { return sv.st.attrs }

// Fragment returns the flat row-major slab and tuple count this stream
// addressed to dst. Empty fragments return (nil-or-empty, 0) and must
// not be landed. The slab is read-only and only valid during Deliver.
func (sv StreamView) Fragment(dst int) ([]relation.Value, int64) {
	return sv.st.perDst[dst], sv.st.counts[dst]
}

// Land copies tuples tuples of the named stream into destination dst's
// planned receiver. flat must hold exactly tuples×len(attrs) values
// (empty for arity 0). Land refuses a stream the round did not send, a
// schema other than the stream's, and tuples beyond what the round
// planned for dst, so a transport can neither invent a relation nor
// overfill one. Chunked landings of one fragment are allowed; callers
// must keep chunks consecutive and must not call Land concurrently for
// one dst.
func (v *RoundView) Land(dst int, name string, attrs []string, flat []relation.Value, tuples int64) error {
	if dst < 0 || dst >= v.c.p {
		return fmt.Errorf("round %q: land into server %d of %d", v.stat.Name, dst, v.c.p)
	}
	if tuples <= 0 {
		return fmt.Errorf("round %q stream %s: land %d tuples", v.stat.Name, name, tuples)
	}
	if int64(len(flat)) != tuples*int64(len(attrs)) {
		return fmt.Errorf("round %q stream %s: %d words for %d tuples of arity %d",
			v.stat.Name, name, len(flat), tuples, len(attrs))
	}
	i, ok := v.byName[name]
	if !ok {
		return fmt.Errorf("round %q: land stream %s, which the round did not send", v.stat.Name, name)
	}
	l := &v.landings[i]
	if !slices.Equal(attrs, l.attrs) {
		return fmt.Errorf("round %q stream %s: land with attrs %v, sent with %v", v.stat.Name, name, attrs, l.attrs)
	}
	r := &l.dsts[dst]
	if tuples > r.left {
		return fmt.Errorf("round %q stream %s: land %d tuples on server %d, %d planned left",
			v.stat.Name, name, tuples, dst, r.left)
	}
	r.rel.AppendFlat(flat, int(tuples))
	r.left -= tuples
	return nil
}
