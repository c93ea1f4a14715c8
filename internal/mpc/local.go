// The default transport: in-process delivery between goroutines.

package mpc

import "fmt"

// localTransport moves a round's fragments between goroutines of one
// process. Destinations are independent — server dst's inbox is the
// concatenation of fragments addressed to dst, in canonical order — so
// each destination's delivery runs on its own goroutine, on the same
// fan-out as the servers' compute.
type localTransport struct{}

// LocalTransport returns the in-process transport every new cluster
// starts with.
func LocalTransport() Transport { return localTransport{} }

func (localTransport) Close() error { return nil }

// Deliver lands the round into the receivers the commit planned. It
// reads the round buffers directly instead of going through Land: one
// bulk copy per fragment, no map lookup and no append growth.
func (localTransport) Deliver(v *RoundView) error {
	// Only dst's receivers are touched, so distinct dst never race.
	if dst, r := v.c.fan.run(v.c.p, func(dst int) {
		for i := range v.streams {
			v.deliverTo(&v.streams[i], dst)
		}
	}); dst >= 0 {
		return fmt.Errorf("delivery to server %d panicked: %v", dst, r)
	}
	return nil
}

// deliverTo lands s's dst fragment in one copy. The plan guarantees
// dst's receiver exists, with room for it, whenever the fragment is
// non-empty.
func (v *RoundView) deliverTo(s *sourceStream, dst int) {
	n := s.st.counts[dst]
	if n == 0 {
		return
	}
	r := &v.landings[s.l].dsts[dst]
	r.rel.AppendFlat(s.st.perDst[dst], int(n))
	r.left -= n
}
