package mpcnet

import (
	"fmt"
	"math"
	"testing"

	"mpcquery/internal/relation"
)

// TestValueWidthRoundTrip: a DATA frame's values take the fewest bytes
// that hold its widest zig-zagged value and decode back bit for bit, at
// both ends of every width, for the extremes of int64, and for a frame
// long enough that widths above 4 take their 8-byte loads and then their
// byte-by-byte tail.
func TestValueWidthRoundTrip(t *testing.T) {
	type tc struct {
		vals  []relation.Value
		width int
	}
	cases := []tc{
		{[]relation.Value{0}, 1},
		{[]relation.Value{-1}, 1},
		{[]relation.Value{0, -1, 1}, 1},
		{[]relation.Value{math.MinInt64}, 8},
		{[]relation.Value{math.MaxInt64}, 8},
		{[]relation.Value{math.MaxInt64, math.MinInt64, 0, -1}, 8},
	}
	for w := 1; w <= 8; w++ {
		lo := relation.Value(-1) << (8*w - 1) // zig-zags to 2^(8w) − 1
		hi := -lo - 1                         // zig-zags to 2^(8w) − 2
		cases = append(cases, tc{[]relation.Value{lo}, w}, tc{[]relation.Value{hi}, w})
		if w < 8 {
			cases = append(cases, tc{[]relation.Value{-lo}, w + 1}, tc{[]relation.Value{lo - 1}, w + 1})
		}
		long := make([]relation.Value, 17)
		for i := range long {
			long[i] = []relation.Value{lo, hi, 0, -1, relation.Value(i)}[i%5]
		}
		cases = append(cases, tc{long, w})
	}
	for _, c := range cases {
		payload := appendData(nil, 0, "R", []string{"a"}, c.vals, int64(len(c.vals)))
		if w := int(payload[len(payload)-len(c.vals)*c.width-1]); w != c.width {
			t.Fatalf("values %v: width %d, want %d", c.vals, w, c.width)
		}
		df, err := decodeData(payload)
		if err != nil {
			t.Fatalf("values %v: %v", c.vals, err)
		}
		assertSameFrame(t, df, dataFrame{dst: 0, name: "R", attrs: []string{"a"}, flat: c.vals, tuples: int64(len(c.vals))})
	}

	// A nullary frame carries its width byte and no value bytes.
	payload := appendData(nil, 4, "done", nil, nil, 3)
	if payload[len(payload)-1] != 1 {
		t.Fatalf("nullary frame ends in %d, want width byte 1", payload[len(payload)-1])
	}
	df, err := decodeData(payload)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFrame(t, df, dataFrame{dst: 4, name: "done", tuples: 3})
}

// TestHostileValueSectionAllocatesNothing: a DATA frame whose value
// section does not hold exactly tuples × arity × w bytes, or whose width
// is outside [1, 8], is refused before the decoder grows its value
// scratch.
func TestHostileValueSectionAllocatesNothing(t *testing.T) {
	for name, payload := range hostileDataFrames() {
		var dec decoder
		if _, err := scanData(payload, &dec); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if cap(dec.flat) != 0 {
			t.Fatalf("%s: value scratch grew to %d before the frame was refused", name, cap(dec.flat))
		}
		if _, err := validateData(payload); err == nil {
			t.Fatalf("%s: validate-only pass accepted", name)
		}
	}
}

// dataHeader is a DATA frame for server 0 of stream R(R) up to and
// including its tuple count: what precedes the width byte.
func dataHeader(tuples uint64) []byte {
	return appendUint([]byte{kindData, 0, 1, 1, 'R', 0, 1, 0}, tuples)
}

// hostileDataFrames are the value-section walls: a width outside
// [1, 8], a section one byte short and one byte long, a width-8 frame
// that claims more tuples than its bytes can hold, and a nullary frame
// whose tuple count does not fit an int64.
func hostileDataFrames() map[string][]byte {
	return map[string][]byte{
		"nullary 2^63 tuples": append(appendUint([]byte{kindData, 0, 1, 1, 'R', 0, 0}, 1<<63), 1),
		"width 0":             append(dataHeader(1), 0, 5),
		"width 9":             append(dataHeader(1), 9, 1, 2, 3, 4, 5, 6, 7, 8, 9),
		"one byte short":      append(dataHeader(2), 2, 1, 2, 3),
		"one byte long":       append(dataHeader(2), 2, 1, 2, 3, 4, 5),
		"too many tuples":     append(dataHeader(1<<40), 8, 1, 2, 3, 4, 5, 6, 7, 8),
		"no width":            dataHeader(1),
	}
}

// TestFrameTuplesBoundsBytes: a fragment of 300-ary tuples of 8-byte
// values is chunked below MaxFrameTuples so every frame fits
// maxFrameBytes, while a fragment whose values are narrow keeps the
// tuple cap.
func TestFrameTuplesBoundsBytes(t *testing.T) {
	attrs := make([]string, 300)
	for i := range attrs {
		attrs[i] = "a" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	wide := make([]relation.Value, 300)
	wide[7] = math.MinInt64
	k := frameTuples(DefaultMaxFrameTuples, "T", attrs, wide)
	if k >= DefaultMaxFrameTuples {
		t.Fatalf("300-ary 8-byte fragment: %d tuples per frame, want fewer than %d", k, DefaultMaxFrameTuples)
	}
	flat := make([]relation.Value, int(k)*len(attrs))
	for i := range flat {
		flat[i] = math.MinInt64 + relation.Value(i)
	}
	if n := len(appendData(nil, 1<<20, "T", attrs, flat, k)); n > maxFrameBytes {
		t.Fatalf("%d-tuple frame of %d bytes, cap %d", k, n, maxFrameBytes)
	}
	narrow := make([]relation.Value, 300)
	if k := frameTuples(DefaultMaxFrameTuples, "T", attrs, narrow); k != DefaultMaxFrameTuples {
		t.Fatalf("300-ary 1-byte fragment: %d tuples per frame, want %d", k, DefaultMaxFrameTuples)
	}
}

// BenchmarkFrameCodec measures the DATA codec alone on one 2-ary frame
// of 3-byte values: encoding it, the worker's validate-only pass, and
// the driver's decode with a warm decoder. Validation checks the value
// section by its length, so its time per frame does not grow with the
// tuple count; the 512-tuple frame beside the 8 192-tuple one shows it.
func BenchmarkFrameCodec(b *testing.B) {
	attrs := []string{"a", "b"}
	for _, tuples := range []int64{512, 8192} {
		flat := make([]relation.Value, 2*tuples)
		for i := range flat {
			flat[i] = relation.Value(i*7919%(1<<20)) - 1<<19
		}
		payload := appendData(nil, 1, "T", attrs, flat, tuples)
		b.Run(fmt.Sprintf("t%d/encode", tuples), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			scratch := make([]byte, 0, len(payload)+8)
			for i := 0; i < b.N; i++ {
				scratch = appendData(scratch[:0], 1, "T", attrs, flat, tuples)
			}
		})
		b.Run(fmt.Sprintf("t%d/validate", tuples), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, err := validateData(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("t%d/decode", tuples), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			var dec decoder
			for i := 0; i < b.N; i++ {
				if _, err := scanData(payload, &dec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
