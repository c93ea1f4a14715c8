package mpcnet

import (
	"bytes"
	"testing"

	"mpcquery/internal/relation"
)

// FuzzFrameRoundTrip: any frame the driver can encode decodes back to
// exactly the same fragment — destination, name, schema, tuples, and
// every value bit. The raw inputs are mapped into a valid fragment
// shape (arity from a byte, values carved from a byte string) so the
// fuzzer explores the encoder's whole domain, including arity 0,
// negative values, and empty/duplicate attribute names.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(0, "R", byte(2), []byte{1, 2, 3, 4}, uint16(1))
	f.Add(5, "", byte(0), []byte{}, uint16(3))
	f.Add(1000, "a very long stream name", byte(7), bytes.Repeat([]byte{0xff}, 64), uint16(9))
	f.Fuzz(func(t *testing.T, dst int, name string, arityB byte, valSeed []byte, tuplesSeed uint16) {
		if dst < 0 {
			dst = -dst
		}
		arity := int(arityB % 8)
		attrs := make([]string, arity)
		for i := range attrs {
			// Includes duplicates and empties on purpose: the codec is
			// schema-agnostic; Land does semantic validation.
			attrs[i] = name + string(rune('a'+i%3))
		}
		tuples := int64(tuplesSeed%32) + 1
		words := int(tuples) * arity
		flat := make([]relation.Value, words)
		for i := range flat {
			v := relation.Value(0)
			for j := 0; j < 8 && i*8+j < len(valSeed); j++ {
				v = v<<8 | relation.Value(valSeed[i*8+j])
			}
			if i%2 == 1 {
				v = -v
			}
			flat[i] = v
		}
		payload := appendData(nil, dst, name, attrs, flat, tuples)
		df, err := decodeData(payload)
		if err != nil {
			t.Fatalf("valid frame rejected: %v", err)
		}
		if df.dst != dst || df.name != name || df.tuples != tuples {
			t.Fatalf("header mismatch: got (%d,%q,%d), want (%d,%q,%d)",
				df.dst, df.name, df.tuples, dst, name, tuples)
		}
		if len(df.attrs) != arity {
			t.Fatalf("arity %d, want %d", len(df.attrs), arity)
		}
		for i := range attrs {
			if df.attrs[i] != attrs[i] {
				t.Fatalf("attr %d: %q, want %q", i, df.attrs[i], attrs[i])
			}
		}
		for i := range flat {
			if df.flat[i] != flat[i] {
				t.Fatalf("value %d: %d, want %d", i, df.flat[i], flat[i])
			}
		}
		// And the encoding is deterministic: re-encoding the decoded
		// frame reproduces the bytes.
		if again := appendData(nil, df.dst, df.name, df.attrs, df.flat, df.tuples); !bytes.Equal(again, payload) {
			t.Fatal("re-encoding is not byte-identical")
		}
	})
}

// FuzzDecodeFrame: arbitrary bytes must never panic any payload decoder
// and never allocate beyond the input's own size class — every claimed
// count is checked against remaining bytes before allocation. The
// dispatch covers all six frame kinds. On DATA payloads it is also a
// differential over the three ways a frame is read:
//   - the worker's validate-only pass accepts exactly the payloads a
//     fresh decoder accepts, and reads the same destination;
//   - a decoder reused across frames returns, for each, exactly what a
//     fresh decoder returns: no interned string or value scratch leaks
//     from one frame into the next, in either direction, even after a
//     frame that failed halfway.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{kindData, 0, 1, 1, 'R', 0, 1, 1, 2})
	f.Add([]byte{kindHello, 1, 2, 2, 0})
	f.Add([]byte{kindFlush, 7})
	f.Add([]byte{kindEnd, 7, 3})
	f.Add([]byte{kindBye})
	f.Add([]byte{kindData, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(appendData(nil, 3, "R", []string{"a", "b"}, []relation.Value{-1, 1 << 40}, 1))
	f.Add(appendData(nil, 0, "done", nil, nil, 5))
	for _, hostile := range hostileDataFrames() {
		f.Add(hostile)
	}
	// Frames a reused decoder reads around the fuzzed one: wider, with
	// overlapping and disjoint names, nullary, and one truncated inside
	// its values.
	wide := appendData(nil, 2, "R", []string{"b", "a", "c"}, []relation.Value{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, -1, -2}, 4)
	others := [][]byte{
		wide,
		appendData(nil, 1, "S", []string{"a"}, []relation.Value{1 << 62}, 1),
		appendData(nil, 0, "done", nil, nil, 2),
		wide[:len(wide)-3],
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, _ = decodePayload(payload)
		if len(payload) == 0 || payload[0] != kindData {
			return
		}
		want, err := decodeData(payload)
		dst, verr := validateData(payload)
		if (err == nil) != (verr == nil) {
			t.Fatalf("validate-only pass says %v, decoder says %v", verr, err)
		}
		if err == nil && dst != want.dst {
			t.Fatalf("validate-only pass reads dst %d, decoder %d", dst, want.dst)
		}
		var dec decoder
		for _, other := range others {
			otherWant, otherErr := decodeData(other)
			type step struct {
				frame []byte
				want  dataFrame
				err   error
			}
			for _, st := range []step{{other, otherWant, otherErr}, {payload, want, err}, {payload, want, err}, {other, otherWant, otherErr}} {
				got, gotErr := scanData(st.frame, &dec)
				if (gotErr == nil) != (st.err == nil) {
					t.Fatalf("reused decoder says %v, fresh decoder %v", gotErr, st.err)
				}
				if gotErr == nil {
					assertSameFrame(t, got, st.want)
				}
			}
		}
	})
}

// assertSameFrame asserts two decoded DATA frames are equal field by
// field, value by value.
func assertSameFrame(t *testing.T, got, want dataFrame) {
	t.Helper()
	if got.dst != want.dst || got.name != want.name || got.tuples != want.tuples ||
		len(got.attrs) != len(want.attrs) || len(got.flat) != len(want.flat) {
		t.Fatalf("frame (%d,%q,%d,%d attrs,%d values), want (%d,%q,%d,%d attrs,%d values)",
			got.dst, got.name, got.tuples, len(got.attrs), len(got.flat),
			want.dst, want.name, want.tuples, len(want.attrs), len(want.flat))
	}
	for i := range want.attrs {
		if got.attrs[i] != want.attrs[i] {
			t.Fatalf("attr %d: %q, want %q", i, got.attrs[i], want.attrs[i])
		}
	}
	for i := range want.flat {
		if got.flat[i] != want.flat[i] {
			t.Fatalf("value %d: %d, want %d", i, got.flat[i], want.flat[i])
		}
	}
}
