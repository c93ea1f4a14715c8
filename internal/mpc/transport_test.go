package mpc_test

import (
	"fmt"
	"strings"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
	"mpcquery/internal/testkit"
	"mpcquery/internal/trace"
)

// transportWorkload is the scripted multi-round program of the
// equivalence suites: hash partition, RNG re-route with an arity-0
// decision stream, and a sampled broadcast — covering bulk fragments,
// randomness, nullary streams, and fan-out.
func transportWorkload(c *mpc.Cluster, input *relation.Relation) {
	c.ScatterRoundRobin(input)
	c.Round("partition", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel("R")
		st := out.Open("H", "x", "y", "z")
		for i := 0; i < frag.Len(); i++ {
			row := frag.Row(i)
			st.SendRow(relation.Bucket(relation.HashRow(row, []int{0}, 42), s.P()), row)
		}
	})
	c.Round("reroute", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel("H")
		if frag == nil {
			return
		}
		st := out.Open("G", "x", "y", "z")
		done := out.Open("done")
		for i := 0; i < frag.Len(); i++ {
			st.SendRow(s.Rng().Intn(s.P()), frag.Row(i))
		}
		done.Send(0)
	})
	c.Round("sample", func(s *mpc.Server, out *mpc.Out) {
		frag := s.Rel("G")
		if frag == nil || frag.Len() == 0 {
			return
		}
		out.Open("S", "x", "y", "z").Broadcast(frag.Row(s.Rng().Intn(frag.Len()))...)
	})
}

// assertSameClusters asserts the full observable state of two runs is
// identical: per-round per-server metering, per-server fragments of
// every named relation (bit for bit, including row order), and the
// recorded trace events.
func assertSameClusters(t *testing.T, a, b *mpc.Cluster, ra, rb *trace.Recorder, names []string) {
	t.Helper()
	as, bs := a.Metrics().RoundStats(), b.Metrics().RoundStats()
	if len(as) != len(bs) {
		t.Fatalf("rounds %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i].Name != bs[i].Name {
			t.Fatalf("round %d: %q vs %q", i, as[i].Name, bs[i].Name)
		}
		for d := range as[i].Recv {
			if as[i].Recv[d] != bs[i].Recv[d] || as[i].RecvWords[d] != bs[i].RecvWords[d] {
				t.Fatalf("round %q server %d: (%d,%d) vs (%d,%d)", as[i].Name, d,
					as[i].Recv[d], as[i].RecvWords[d], bs[i].Recv[d], bs[i].RecvWords[d])
			}
		}
	}
	for _, name := range names {
		for i := 0; i < a.P(); i++ {
			fa, fb := a.Server(i).Rel(name), b.Server(i).Rel(name)
			if (fa == nil) != (fb == nil) {
				t.Fatalf("%s server %d: fragment present %v vs %v", name, i, fa != nil, fb != nil)
			}
			if fa == nil {
				continue
			}
			if fa.Len() != fb.Len() {
				t.Fatalf("%s server %d: %d vs %d tuples", name, i, fa.Len(), fb.Len())
			}
			for r := 0; r < fa.Len(); r++ {
				ga, gb := fa.Row(r), fb.Row(r)
				for j := range ga {
					if ga[j] != gb[j] {
						t.Fatalf("%s server %d row %d: %v vs %v", name, i, r, ga, gb)
					}
				}
			}
		}
	}
	ea, eb := ra.Events(), rb.Events()
	if len(ea) != len(eb) {
		t.Fatalf("trace: %d vs %d events", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("trace event %d: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

// TestTransportEquivalence proves the transport seam changes nothing
// observable: a fresh cluster's default, an explicitly attached
// LocalTransport, and the portable RoundView-only transport (whole-fragment and chunked) all
// produce identical fragments, metering, and traces on the full skew
// matrix.
func TestTransportEquivalence(t *testing.T) {
	backends := []struct {
		name string
		tr   mpc.Transport
	}{
		{"local-explicit", mpc.LocalTransport()},
		{"portable", mpc.PortableTransport{}},
		{"portable-chunk3", mpc.PortableTransport{Chunk: 3}},
	}
	for _, skew := range testkit.AllSkews {
		for _, p := range []int{2, 7} {
			skew, p := skew, p
			t.Run(fmt.Sprintf("%s/p%d", skew, p), func(t *testing.T) {
				input := testkit.GenRelation("R", []string{"x", "y", "z"}, skew, testkit.GenConfig{Tuples: 300}, 11)
				base := mpc.NewCluster(p, 11)
				baseRec := trace.NewRecorder()
				base.SetTracer(baseRec)
				transportWorkload(base, input)
				for _, be := range backends {
					be := be
					t.Run(be.name, func(t *testing.T) {
						c := mpc.NewCluster(p, 11)
						rec := trace.NewRecorder()
						c.SetTracer(rec)
						c.SetTransport(be.tr)
						transportWorkload(c, input)
						assertSameClusters(t, base, c, baseRec, rec, []string{"H", "G", "S", "done"})
					})
				}
			})
		}
	}
}

// failingTransport errors on every delivery.
type failingTransport struct{}

func (failingTransport) Deliver(*mpc.RoundView) error { return fmt.Errorf("wire unplugged") }
func (failingTransport) Close() error                 { return nil }

// TestTransportFailurePanics: a transport error must abort the round
// loudly — committing partial state would desynchronize servers and
// metering.
func TestTransportFailurePanics(t *testing.T) {
	c := mpc.NewCluster(2, 1)
	c.SetTransport(failingTransport{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("round with failing transport did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "wire unplugged") {
			t.Fatalf("panic %v does not carry the transport error", r)
		}
	}()
	c.Round("r", func(s *mpc.Server, out *mpc.Out) {
		out.Open("X", "a").Send(0, 1)
	})
}

// deliverCounter counts Deliver calls and delivers nothing.
type deliverCounter struct{ calls *int }

func (d deliverCounter) Deliver(*mpc.RoundView) error { *d.calls++; return nil }
func (deliverCounter) Close() error                   { return nil }

// TestValidateStreamsConflict: the cluster, not the transport, rejects a
// round whose sources disagree on a stream schema or whose stream would
// land into an existing relation of another schema — with the same panic
// whatever transport is attached, and before Deliver is called.
func TestValidateStreamsConflict(t *testing.T) {
	rounds := map[string]func(s *mpc.Server, out *mpc.Out){
		"sources-disagree": func(s *mpc.Server, out *mpc.Out) {
			if s.ID() == 0 {
				out.Open("X", "a").Send(1, 1)
			} else {
				out.Open("X", "b").Send(0, 2)
			}
		},
		"existing-relation": func(s *mpc.Server, out *mpc.Out) {
			out.Open("E", "b").Send(0, 2)
		},
	}
	for name, round := range rounds {
		round := round
		t.Run(name, func(t *testing.T) {
			delivers := 0
			var texts []string
			for _, tr := range []mpc.Transport{nil, mpc.PortableTransport{}, deliverCounter{&delivers}} {
				c := mpc.NewCluster(2, 1)
				c.SetTransport(tr)
				c.Server(0).Put(relation.New("E", "a"))
				func() {
					defer func() { texts = append(texts, fmt.Sprint(recover())) }()
					c.Round("conflict", round)
				}()
				if c.Metrics().Rounds() != 0 {
					t.Fatalf("malformed round was metered: %v", c.Metrics())
				}
			}
			if delivers != 0 {
				t.Fatalf("Deliver was called %d times on a malformed round", delivers)
			}
			if !strings.HasPrefix(texts[0], `mpc: round "conflict"`) || texts[1] != texts[0] || texts[2] != texts[0] {
				t.Fatalf("panic differs across transports: %q", texts)
			}
		})
	}
}

// TestLandValidation: Land must reject out-of-range destinations,
// word/tuple mismatches, and schema conflicts with existing relations.
func TestLandValidation(t *testing.T) {
	bad := []struct {
		name string
		tr   mpc.Transport
	}{
		{"bad-dst", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(v.P(), "X", []string{"a"}, []relation.Value{1}, 1)
		})},
		{"word-mismatch", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(0, "X", []string{"a"}, []relation.Value{1, 2}, 1)
		})},
		{"zero-tuples", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(0, "X", []string{"a"}, nil, 0)
		})},
		{"dup-attrs", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(0, "Y", []string{"a", "a"}, []relation.Value{1, 2}, 1)
		})},
	}
	for _, tc := range bad {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := mpc.NewCluster(2, 1)
			c.SetTransport(tc.tr)
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("invalid Land did not abort the round")
				}
			}()
			c.Round("r", func(s *mpc.Server, out *mpc.Out) {
				out.Open("X", "a").Send(0, 1)
			})
		})
	}
}

// transportFunc adapts a function to the Transport interface.
type transportFunc func(*mpc.RoundView) error

func (f transportFunc) Deliver(v *mpc.RoundView) error { return f(v) }
func (transportFunc) Close() error                     { return nil }
