// The transport layer: how a committed round's tuples physically move.
//
// Everything above this file — algorithms, the planner, the chaos
// recovery driver, the trace layer — speaks in rounds of fragments: one
// fragment is everything one source server sent one destination on one
// stream. The Transport interface is the seam between that model and
// the machinery that moves the bytes, and it is the only delivery path:
// every round of every cluster commits through deliverCommit, which
// validates the round's streams once and hands a RoundView to the
// cluster's transport. The default, LocalTransport (local.go), moves
// fragments between goroutines in one process and is a Transport like
// any other; internal/mpcnet ships the same fragments over real TCP
// sockets. Everything observable — delivered fragment contents and
// order, the (L, r, C) metering, trace events — is a pure function of
// the round's outs, so any conforming transport produces bit-identical
// simulations.
//
// A conforming Transport must:
//
//  1. land every non-empty fragment exactly once (chunking one fragment
//     into several consecutive Land calls is allowed);
//  2. per destination, land fragments in canonical order — source
//     server ascending, then stream creation order, then send order —
//     and never call Land concurrently for the same destination;
//  3. not retain fragment slices after Deliver returns: the round
//     buffers they view are pooled and reused by the next round.
//
// Schema validation is not a transport's job. Out.Open rejects a
// malformed schema where it is declared; the cluster rejects a round
// whose sources disagree on a stream's schema, or whose stream would
// land into an existing relation of another schema, before Deliver is
// called, so a malformed round fails identically on every backend and
// before any tuple moves.
//
// Delivered fragments are isolated: Land copies tuples into the
// destination relation, so no two servers ever share tuple storage and
// mutating a received fragment cannot affect another server, the source
// buffers, or a later round. transport_test.go and aliasing_test.go pin
// that for every transport.

package mpc

import (
	"fmt"

	"mpcquery/internal/relation"
)

// Transport moves one round's fragments into the destination servers.
// Implementations are attached with (*Cluster).SetTransport and must
// satisfy the contract documented at the top of this file.
type Transport interface {
	// Deliver ships every fragment of the round described by v and
	// lands each exactly once via v.Land. A non-nil error aborts the
	// round: the cluster panics, since partial delivery would leave
	// server state inconsistent with the metering.
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

// deliverCommit commits a round: it validates the round's streams,
// delivers through the cluster's transport and records the metered
// load. The committed state is a pure function of the outs, so
// transports are interchangeable without observable effect.
func (c *Cluster) deliverCommit(name string, outs []*Out) {
	v := &RoundView{c: c, name: name, outs: outs, recv: make([]int64, c.p), recvWords: make([]int64, c.p)}
	if err := v.validateStreams(); err != nil {
		panic(fmt.Sprintf("mpc: %v", err))
	}
	if err := c.transport.Deliver(v); err != nil {
		panic(fmt.Sprintf("mpc: round %q: transport delivery failed: %v", name, err))
	}
	c.metrics.record(name, v.recv, v.recvWords)
}

// RoundView is the transport-facing view of one round: an enumeration
// of the round's fragments in canonical order, plus the Land sink that
// commits them into destination servers with exact metering. A view is
// only valid during the Deliver call it was created for.
type RoundView struct {
	c         *Cluster
	name      string
	outs      []*Out
	recv      []int64
	recvWords []int64
}

// P returns the cluster size; destinations and sources are in [0, P).
func (v *RoundView) P() int { return v.c.p }

// Name returns the round's label (metric/trace round name).
func (v *RoundView) Name() string { return v.name }

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

// validateStreams is the round's one schema check: every source that
// opens a stream of a given name must declare the identical schema, and
// a stream must not land into an existing destination relation of a
// different schema.
func (v *RoundView) validateStreams() error {
	attrsByName := map[string][]string{}
	for src := 0; src < v.c.p; src++ {
		out := v.outs[src]
		for _, stName := range out.order {
			st := out.streams[stName]
			if prev, ok := attrsByName[stName]; !ok {
				attrsByName[stName] = st.attrs
			} else if !attrsEqual(prev, st.attrs) {
				return fmt.Errorf("round %q stream %s declared with attrs %v by one server and %v by another",
					v.name, stName, prev, st.attrs)
			}
		}
	}
	for stName, attrs := range attrsByName {
		for dst := 0; dst < v.c.p; dst++ {
			if dstRel := v.c.servers[dst].rels[stName]; dstRel != nil && !attrsEqual(dstRel.Attrs(), attrs) {
				return fmt.Errorf("round %q delivers %s with attrs %v into existing attrs %v",
					v.name, stName, attrs, dstRel.Attrs())
			}
		}
	}
	return nil
}

// Land commits tuples tuples of the named stream into destination dst,
// creating the receiving relation on first delivery, validating its
// schema, copying the flat slab, and metering the received load. flat
// must hold exactly tuples×len(attrs) values (empty for arity 0).
// Chunked landings of one fragment are allowed; callers must keep
// chunks consecutive and must not call Land concurrently for one dst.
func (v *RoundView) Land(dst int, name string, attrs []string, flat []relation.Value, tuples int64) error {
	if dst < 0 || dst >= v.c.p {
		return fmt.Errorf("round %q: land into server %d of %d", v.name, dst, v.c.p)
	}
	if tuples <= 0 {
		return fmt.Errorf("round %q stream %s: land %d tuples", v.name, name, tuples)
	}
	if int64(len(flat)) != tuples*int64(len(attrs)) {
		return fmt.Errorf("round %q stream %s: %d words for %d tuples of arity %d",
			v.name, name, len(flat), tuples, len(attrs))
	}
	dstRel := v.c.servers[dst].rels[name]
	if dstRel == nil {
		seen := make(map[string]bool, len(attrs))
		for _, a := range attrs {
			if seen[a] {
				return fmt.Errorf("round %q stream %s: duplicate attribute %q", v.name, name, a)
			}
			seen[a] = true
		}
		dstRel = relation.New(name, attrs...)
		v.c.servers[dst].rels[name] = dstRel
	} else if !attrsEqual(dstRel.Attrs(), attrs) {
		return fmt.Errorf("round %q delivers %s with attrs %v into existing attrs %v",
			v.name, name, attrs, dstRel.Attrs())
	}
	dstRel.AppendFlat(flat, int(tuples))
	v.recv[dst] += tuples
	v.recvWords[dst] += int64(len(flat))
	return nil
}
