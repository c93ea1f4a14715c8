package mpcnet

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"mpcquery/internal/mpc"
	"mpcquery/internal/relation"
)

// allocRuns is the number of frames each allocation pin measures.
const allocRuns = 100

// warmFrame is one DATA frame of the data plane's steady state: a
// 3-ary chunk of 256 tuples with values of both signs, 5 bytes wide
// zig-zagged, so the codec takes its 8-byte store and load path.
func warmFrame() (name string, attrs []string, flat []relation.Value, tuples int64) {
	attrs = []string{"x", "y", "z"}
	tuples = 256
	flat = make([]relation.Value, int(tuples)*len(attrs))
	for i := range flat {
		flat[i] = relation.Value(i*i*7919) - 1<<20
	}
	return "T", attrs, flat, tuples
}

// TestFrameAllocs pins that a warm DATA frame moves without allocating
// at every step of its trip: the driver encoding and writing it, the
// worker validating it, and the driver reading, decoding and landing
// its echo into a receiver the commit presized.
func TestFrameAllocs(t *testing.T) {
	name, attrs, flat, tuples := warmFrame()

	t.Run("encode", func(t *testing.T) {
		bw := bufio.NewWriterSize(io.Discard, 1<<16)
		var scratch []byte
		got := testing.AllocsPerRun(allocRuns, func() {
			scratch = appendData(scratch[:0], 1, name, attrs, flat, tuples)
			if err := writeFrame(bw, scratch); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Fatalf("encoding a warm frame: %v allocs per frame, want 0", got)
		}
	})

	payload := appendData(nil, 1, name, attrs, flat, tuples)

	t.Run("validate", func(t *testing.T) {
		got := testing.AllocsPerRun(allocRuns, func() {
			if _, err := validateData(payload); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Fatalf("validating a warm frame: %v allocs per frame, want 0", got)
		}
	})

	t.Run("decode-land", func(t *testing.T) {
		// The echo stream: one length-prefixed copy of the frame per call
		// AllocsPerRun makes (its warm-up call included).
		var wire bytes.Buffer
		bw := bufio.NewWriter(&wire)
		for i := 0; i < allocRuns+1; i++ {
			if err := writeFrame(bw, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReaderSize(&wire, 1<<16)

		// A round that plans exactly the frames landed below on server 1.
		c := mpc.NewCluster(2, 1)
		var got float64
		c.SetTransport(landFunc(func(v *mpc.RoundView) error {
			var (
				buf []byte
				dec decoder
			)
			got = testing.AllocsPerRun(allocRuns, func() {
				var err error
				if buf, err = readFrame(br, buf); err != nil {
					t.Fatal(err)
				}
				df, err := scanData(buf, &dec)
				if err != nil {
					t.Fatal(err)
				}
				if err := v.Land(df.dst, df.name, df.attrs, df.flat, df.tuples); err != nil {
					t.Fatal(err)
				}
			})
			return nil
		}))
		c.Round("echo", func(s *mpc.Server, out *mpc.Out) {
			if s.ID() != 0 {
				return
			}
			st := out.Open(name, attrs...)
			for i := 0; i < allocRuns+1; i++ {
				for j := int64(0); j < tuples; j++ {
					st.SendRow(1, flat[int(j)*len(attrs):int(j+1)*len(attrs)])
				}
			}
		})
		if got != 0 {
			t.Fatalf("decoding and landing a warm frame: %v allocs per frame, want 0", got)
		}
		if rel := c.Server(1).Rel(name); rel.Len() != (allocRuns+1)*int(tuples) || rel.Cap() != rel.Words() {
			t.Fatalf("landed %d tuples into cap %d, want %d tuples filling it", rel.Len(), rel.Cap(), (allocRuns+1)*int(tuples))
		}
	})
}

// landFunc adapts a function to mpc.Transport.
type landFunc func(*mpc.RoundView) error

func (f landFunc) Deliver(v *mpc.RoundView) error { return f(v) }
func (landFunc) Close() error                     { return nil }
