package mpc_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mpcquery/internal/chaos"
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

// errUnplugged is what failingTransport's Deliver returns.
var errUnplugged = errors.New("wire unplugged")

// failingTransport errors on every delivery.
type failingTransport struct{}

func (failingTransport) Deliver(*mpc.RoundView) error { return errUnplugged }
func (failingTransport) Close() error                 { return nil }

// TestTransportFailurePanics: a transport error must fail the round
// and become the cluster's Err, wrapping the transport's error —
// committing partial state would desynchronize servers and metering.
func TestTransportFailurePanics(t *testing.T) {
	c := mpc.NewCluster(2, 1)
	c.SetTransport(failingTransport{})
	c.Round("r", func(s *mpc.Server, out *mpc.Out) {
		out.Open("X", "a").Send(0, 1)
	})
	err := c.Err()
	if err == nil {
		t.Fatal("round with failing transport did not fail")
	}
	if !errors.Is(err, errUnplugged) || err.Error() != `mpc: round "r": transport delivery failed: wire unplugged` {
		t.Fatalf("Err %v does not wrap the transport error", err)
	}
	if c.Metrics().Rounds() != 0 {
		t.Fatalf("failed round was metered: %v", c.Metrics())
	}
}

// deliverCounter counts Deliver calls and delivers nothing.
type deliverCounter struct{ calls *int }

func (d deliverCounter) Deliver(*mpc.RoundView) error { *d.calls++; return nil }
func (deliverCounter) Close() error                   { return nil }

// TestValidateStreamsConflict: the cluster, not the transport, rejects a
// round whose sources disagree on a stream schema or whose stream would
// land into an existing relation of another schema — with the same Err
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
				c.Round("conflict", round)
				texts = append(texts, fmt.Sprint(c.Err()))
				if c.Metrics().Rounds() != 0 {
					t.Fatalf("malformed round was metered: %v", c.Metrics())
				}
			}
			if delivers != 0 {
				t.Fatalf("Deliver was called %d times on a malformed round", delivers)
			}
			if !strings.HasPrefix(texts[0], `mpc: round "conflict"`) || texts[1] != texts[0] || texts[2] != texts[0] {
				t.Fatalf("Err differs across transports: %q", texts)
			}
		})
	}
}

// TestLandValidation: Land must reject out-of-range destinations,
// word/tuple mismatches, streams the round did not send, schemas other
// than the stream's, and tuples beyond the plan; and the commit must
// fail a round the transport left short, naming the round, stream and
// destination. No rejected round is metered.
func TestLandValidation(t *testing.T) {
	// The round below plans two X tuples for server 0 and none for 1.
	bad := []struct {
		name string
		tr   mpc.Transport
		want string
	}{
		{"bad-dst", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(v.P(), "X", []string{"a"}, []relation.Value{1}, 1)
		}), "land into server 2 of 2"},
		{"word-mismatch", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(0, "X", []string{"a"}, []relation.Value{1, 2}, 1)
		}), "2 words for 1 tuples"},
		{"zero-tuples", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(0, "X", []string{"a"}, nil, 0)
		}), "land 0 tuples"},
		{"dup-attrs", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(0, "Y", []string{"a", "a"}, []relation.Value{1, 2}, 1)
		}), "did not send"},
		{"unknown-stream", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(1, "Phantom", []string{"a"}, []relation.Value{1}, 1)
		}), "land stream Phantom, which the round did not send"},
		{"schema-mismatch", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(0, "X", []string{"b"}, []relation.Value{1}, 1)
		}), "land with attrs [b], sent with [a]"},
		{"overfill", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(0, "X", []string{"a"}, []relation.Value{1, 1, 1}, 3)
		}), "land 3 tuples on server 0, 2 planned left"},
		{"overfill-unplanned-dst", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(1, "X", []string{"a"}, []relation.Value{1}, 1)
		}), "land 1 tuples on server 1, 0 planned left"},
		{"short-delivery", transportFunc(func(v *mpc.RoundView) error {
			return v.Land(0, "X", []string{"a"}, []relation.Value{1}, 1)
		}), `mpc: round "r" stream X: server 0 is 1 tuples short of the plan`},
		{"nothing-landed", transportFunc(func(v *mpc.RoundView) error { return nil }),
			`mpc: round "r" stream X: server 0 is 2 tuples short of the plan`},
	}
	for _, tc := range bad {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := mpc.NewCluster(2, 1)
			c.SetTransport(tc.tr)
			c.Round("r", func(s *mpc.Server, out *mpc.Out) {
				out.Open("X", "a").Send(0, 1)
			})
			err := c.Err()
			if err == nil {
				t.Fatal("invalid landing did not fail the round")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Err %q does not say %q", err, tc.want)
			}
			if c.Metrics().Rounds() != 0 {
				t.Fatalf("rejected round was metered: %v", c.Metrics())
			}
		})
	}
}

// TestReceiversPresized: the commit presizes every receiving relation
// exactly before any transport lands into it, so after a round every
// received relation's storage is full, whichever transport delivered
// it, chunked, row by row, or replayed under faults.
func TestReceiversPresized(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tr     mpc.Transport
		procs  int // GOMAXPROCS for the run; 0 leaves it
		faults bool
	}{
		{"local", nil, 0, false},
		{"local-1-cpu", nil, 1, false},
		{"portable-chunk3", mpc.PortableTransport{Chunk: 3}, 0, false},
		{"reference", mpc.ReferenceTransport(), 0, false},
		{"reference-chaos", mpc.ReferenceTransport(), 0, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			c := mpc.NewCluster(5, 3)
			c.SetTransport(tc.tr)
			if tc.faults {
				c.SetFaultInjector(chaos.MustParseSchedule("505:drop=0.15,dup=0.1,crash=0.15"))
			}
			input := testkit.GenRelation("R", []string{"x", "y", "z"}, testkit.SkewZipf, testkit.GenConfig{Tuples: 300}, 5)
			transportWorkload(c, input)
			for _, name := range []string{"H", "G", "S", "done"} {
				for i := 0; i < c.P(); i++ {
					if rel := c.Server(i).Rel(name); rel != nil && rel.Cap() != rel.Words() {
						t.Fatalf("%s on server %d: cap %d for %d words", name, i, rel.Cap(), rel.Words())
					}
				}
			}
		})
	}
}

// transportFunc adapts a function to the Transport interface.
type transportFunc func(*mpc.RoundView) error

func (f transportFunc) Deliver(v *mpc.RoundView) error { return f(v) }
func (transportFunc) Close() error                     { return nil }
