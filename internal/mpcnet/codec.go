// Wire format of the TCP transport.
//
// Every message on a driver↔worker connection is one frame: a uvarint
// byte length followed by that many payload bytes, of which the first
// is the frame kind. Multi-byte integers inside payloads are unsigned
// varints. A DATA frame's attribute values are fixed-width: one width
// byte w in [1, 8], then every value zig-zag encoded (small magnitudes
// of either sign give small numbers) in exactly w little-endian bytes,
// w being the fewest that hold the frame's widest value. The
// format is self-contained per frame: a DATA frame carries a string
// table of the unique strings it references (stream name and
// attributes, in first-occurrence order) so the payload never repeats a
// string and a decoder never needs cross-frame state.
//
//	HELLO    kind=1  version, p, nworkers, workerIdx
//	HELLOACK kind=2  version
//	DATA     kind=3  dst, nstrings, strings..., nameIdx,
//	                 arity, attrIdx..., tuples, w, values...
//	FLUSH    kind=4  seq
//	END      kind=5  seq, frames
//	BYE      kind=6  (empty)
//
// Decoding is strict and allocation-safe on hostile input: every
// claimed count is validated against the bytes actually remaining
// before anything is allocated (each string occupies at least one byte,
// and the value section must be exactly tuples × arity × w bytes),
// truncated or trailing bytes are errors, and frames above
// maxFrameBytes are rejected at the length prefix. Every byte string of
// the right length decodes to valid values, so checking a DATA frame
// reads none of its value bytes. The fuzz targets in fuzz_test.go pin
// these properties.
//
// A DATA frame in steady state moves without allocating. The driver
// encodes into one scratch buffer per round and writes the length
// prefix into the bufio.Writer's own buffer. It reads each echoed frame
// back into that scratch and decodes it with one decoder, which interns
// strings and reuses its value scratch; both are dropped when the round
// returns. The worker validates a frame in a pass that materializes
// nothing. The one per-frame allocation left is the buffer the worker
// holds a payload in until FLUSH. alloc_test.go pins the rest at zero.
package mpcnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"mpcquery/internal/relation"
)

// protoVersion is bumped on any incompatible wire change; HELLO and
// HELLOACK must agree on it.
const protoVersion = 2

// maxFrameBytes bounds a single frame. The driver's chunking (Options.
// MaxFrameTuples) keeps real frames far below it; the decoder uses it
// to refuse hostile length prefixes before allocating.
const maxFrameBytes = 1 << 24

// Frame kinds.
const (
	kindHello    = 1
	kindHelloAck = 2
	kindData     = 3
	kindFlush    = 4
	kindEnd      = 5
	kindBye      = 6
)

// writeFrame writes one length-prefixed frame. The caller flushes. The
// length prefix is appended into the writer's own free buffer, so a
// frame is written without allocating.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) == 0 || len(payload) > maxFrameBytes {
		return fmt.Errorf("mpcnet: frame of %d bytes", len(payload))
	}
	if _, err := w.Write(binary.AppendUvarint(w.AvailableBuffer(), uint64(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame into buf, which it grows
// only when the frame does not fit, and returns the payload. It rejects
// empty and oversized frames before allocating. A caller that holds the
// payload past the next read passes nil.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("mpcnet: frame length %d", n)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// appendUint appends a uvarint.
func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// cursor decodes a payload front to back with bounds checking.
type cursor struct{ b []byte }

func (c *cursor) uint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, fmt.Errorf("mpcnet: truncated varint")
	}
	c.b = c.b[n:]
	return v, nil
}

// count decodes a uvarint that claims howMany items of at least
// minBytes bytes each and rejects claims the remaining payload cannot
// hold — the guard that makes decoding allocation-safe.
func (c *cursor) count(minBytes int, what string) (int, error) {
	v, err := c.uint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(c.b))/uint64(minBytes) {
		return 0, fmt.Errorf("mpcnet: %s count %d exceeds %d remaining bytes", what, v, len(c.b))
	}
	return int(v), nil
}

// bytes consumes a length-prefixed string and returns it as a view of
// the payload.
func (c *cursor) bytes() ([]byte, error) {
	n, err := c.count(1, "string byte")
	if err != nil {
		return nil, err
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b, nil
}

func (c *cursor) done() error {
	if len(c.b) != 0 {
		return fmt.Errorf("mpcnet: %d trailing bytes", len(c.b))
	}
	return nil
}

// hello is the handshake: the driver announces the protocol version,
// cluster size, worker count, and which shard this worker owns.
type hello struct {
	version, p, nworkers, workerIdx int
}

// appendUints appends a control frame: its kind, then vals as
// uvarints. HELLO, HELLOACK, FLUSH, END and BYE are all of this shape.
func appendUints(b []byte, kind byte, vals ...uint64) []byte {
	b = append(b, kind)
	for _, v := range vals {
		b = appendUint(b, v)
	}
	return b
}

// decodeUints decodes a control frame of the given kind that holds
// exactly len(vals) uvarints.
func decodeUints(payload []byte, kind byte, vals ...*uint64) error {
	if len(payload) == 0 || payload[0] != kind {
		return fmt.Errorf("mpcnet: not a frame of kind %d", kind)
	}
	c := cursor{payload[1:]}
	for _, v := range vals {
		var err error
		if *v, err = c.uint(); err != nil {
			return err
		}
	}
	return c.done()
}

// decodeHello decodes a HELLO and checks the topology it announces.
func decodeHello(payload []byte) (hello, error) {
	var f [4]uint64
	if err := decodeUints(payload, kindHello, &f[0], &f[1], &f[2], &f[3]); err != nil {
		return hello{}, err
	}
	if slices.Max(f[:]) > math.MaxInt32 || f[1] < 1 || f[3] >= f[2] {
		return hello{}, fmt.Errorf("mpcnet: HELLO version=%d p=%d nworkers=%d idx=%d", f[0], f[1], f[2], f[3])
	}
	return hello{int(f[0]), int(f[1]), int(f[2]), int(f[3])}, nil
}

// dataFrame is one decoded DATA frame: a whole fragment or one chunk of
// one, addressed to a single destination server. attrs and flat view
// the decoder's scratch and are valid until its next decode.
type dataFrame struct {
	dst    int
	name   string
	attrs  []string
	flat   []relation.Value
	tuples int64
}

// appendData encodes one fragment chunk. flat must hold exactly
// tuples×len(attrs) values.
func appendData(b []byte, dst int, name string, attrs []string, flat []relation.Value, tuples int64) []byte {
	b = append(b, kindData)
	b = appendUint(b, uint64(dst))
	// String table: unique strings in first-occurrence order over
	// (name, attrs...); then indices into it. Schemas are short, so a
	// linear scan over a stack array beats a map.
	var arr [8]string
	table := append(arr[:0], name)
	for _, a := range attrs {
		if !slices.Contains(table, a) {
			table = append(table, a)
		}
	}
	b = appendUint(b, uint64(len(table)))
	for _, s := range table {
		b = appendUint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = appendUint(b, 0) // the name is the table's first string
	b = appendUint(b, uint64(len(attrs)))
	for _, a := range attrs {
		b = appendUint(b, uint64(slices.Index(table, a)))
	}
	b = appendUint(b, uint64(tuples))
	w := valueWidth(flat)
	return appendValues(append(b, byte(w)), flat, w)
}

// zigzag folds signed values into unsigned ones with small absolute
// values mapping to small encodings: 0→0, -1→1, 1→2, -2→3, ...
func zigzag(v relation.Value) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) relation.Value { return relation.Value(u>>1) ^ -relation.Value(u&1) }

// valueWidth is the fewest bytes, 1 to 8, that hold every value of vals
// zig-zagged.
func valueWidth(vals []relation.Value) int {
	var or uint64
	for _, v := range vals {
		or |= zigzag(v)
	}
	return max(1, (bits.Len64(or)+7)/8)
}

// appendValues appends every value of vals zig-zagged into w
// little-endian bytes; each must fit. Widths above 4 store all 8 bytes
// of a value into spare capacity: its high bytes are zero, and the next
// value's store overwrites them.
func appendValues(b []byte, vals []relation.Value, w int) []byte {
	n := len(b) + len(vals)*w
	b = slices.Grow(b, len(vals)*w+8)
	out := b[len(b) : n+8]
	switch w {
	case 1:
		for i, v := range vals {
			out[i] = byte(zigzag(v))
		}
	case 2:
		for i, v := range vals {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(zigzag(v)))
		}
	case 3:
		for i, v := range vals {
			u, o := zigzag(v), out[3*i:3*i+3]
			o[0], o[1], o[2] = byte(u), byte(u>>8), byte(u>>16)
		}
	case 4:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(zigzag(v)))
		}
	default:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[w*i:], zigzag(v))
		}
	}
	return b[:n]
}

// decodeValues fills dst from src, which holds len(dst) values of w
// bytes each. Widths above 4 load 8 bytes and mask them while 8 remain;
// the last few values are read byte by byte.
func decodeValues(dst []relation.Value, src []byte, w int) {
	switch w {
	case 1:
		for i := range dst {
			dst[i] = unzigzag(uint64(src[i]))
		}
	case 2:
		for i := range dst {
			dst[i] = unzigzag(uint64(binary.LittleEndian.Uint16(src[2*i:])))
		}
	case 3:
		for i := range dst {
			s := src[3*i : 3*i+3]
			dst[i] = unzigzag(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16)
		}
	case 4:
		for i := range dst {
			dst[i] = unzigzag(uint64(binary.LittleEndian.Uint32(src[4*i:])))
		}
	default:
		mask := ^uint64(0) >> (64 - 8*w)
		i := 0
		for ; i < len(dst) && w*i+8 <= len(src); i++ {
			dst[i] = unzigzag(binary.LittleEndian.Uint64(src[w*i:]) & mask)
		}
		for ; i < len(dst); i++ {
			var u uint64
			for j := w*i + w - 1; j >= w*i; j-- {
				u = u<<8 | uint64(src[j])
			}
			dst[i] = unzigzag(u)
		}
	}
}

// frameTuples is how many tuples of a fragment each of its DATA frames
// carries: at most maxTuples, and no more than fit maxFrameBytes beside
// the longest header the stream can have, at the fragment's arity and
// value width. A chunk is no wider than its fragment, so every frame
// fits. The width pass runs only when 8-byte values might not.
func frameTuples(maxTuples int64, name string, attrs []string, flat []relation.Value) int64 {
	room := int64(maxFrameBytes - 2 - 6*binary.MaxVarintLen64 - len(name))
	for _, a := range attrs {
		room -= int64(2*binary.MaxVarintLen64 + len(a))
	}
	if len(attrs) == 0 || maxTuples <= room/int64(8*len(attrs)) {
		return maxTuples
	}
	return max(1, min(maxTuples, room/int64(valueWidth(flat)*len(attrs))))
}

// decoder decodes DATA frames into scratch it reuses from frame to
// frame, so a warm decoder allocates nothing per frame. It interns every
// string it decodes: a name or attribute seen before costs a map lookup,
// which does not allocate. The zero value is ready to use. A decoder
// lives as long as one round on one connection, so neither its interned
// strings nor its scratch outlive the round.
type decoder struct {
	strs  map[string]string
	table []string
	attrs []string
	flat  []relation.Value
}

func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// decodeData decodes one DATA payload with a fresh decoder.
func decodeData(payload []byte) (dataFrame, error) {
	return scanData(payload, new(decoder))
}

// validateData checks a DATA payload exactly as decodeData does and
// returns its destination, materializing nothing: it skips strings
// instead of building them and checks the values by their length alone,
// so it never allocates.
func validateData(payload []byte) (int, error) {
	df, err := scanData(payload, nil)
	return df.dst, err
}

// scanData is the one parser of DATA frames, so validation accepts
// exactly what decoding accepts. It decodes into d's scratch; with a nil
// decoder it only validates, and df then carries the destination and
// tuple count but no name, attrs or values.
func scanData(payload []byte, d *decoder) (dataFrame, error) {
	var df dataFrame
	if len(payload) == 0 || payload[0] != kindData {
		return df, fmt.Errorf("mpcnet: not a DATA frame")
	}
	c := cursor{payload[1:]}
	dst, err := c.uint()
	if err != nil {
		return df, err
	}
	if dst > math.MaxInt32 {
		return df, fmt.Errorf("mpcnet: DATA dst %d", dst)
	}
	df.dst = int(dst)
	nstr, err := c.count(1, "string")
	if err != nil {
		return df, err
	}
	if d != nil {
		d.table = d.table[:0]
	}
	for i := 0; i < nstr; i++ {
		b, err := c.bytes()
		if err != nil {
			return df, err
		}
		if d != nil {
			d.table = append(d.table, d.intern(b))
		}
	}
	nameIdx, err := c.uint()
	if err != nil {
		return df, err
	}
	if nameIdx >= uint64(nstr) {
		return df, fmt.Errorf("mpcnet: DATA name index %d of %d strings", nameIdx, nstr)
	}
	arity, err := c.count(1, "attribute")
	if err != nil {
		return df, err
	}
	if d != nil {
		df.name = d.table[nameIdx]
		d.attrs = d.attrs[:0]
	}
	for i := 0; i < arity; i++ {
		ai, err := c.uint()
		if err != nil {
			return df, err
		}
		if ai >= uint64(nstr) {
			return df, fmt.Errorf("mpcnet: DATA attr index %d of %d strings", ai, nstr)
		}
		if d != nil {
			d.attrs = append(d.attrs, d.table[ai])
		}
	}
	tuples, err := c.uint()
	if err != nil {
		return df, err
	}
	if tuples == 0 || tuples > math.MaxInt64 {
		return df, fmt.Errorf("mpcnet: DATA frame with %d tuples", tuples)
	}
	if len(c.b) == 0 {
		return df, fmt.Errorf("mpcnet: DATA frame without a value width")
	}
	w := int(c.b[0])
	c.b = c.b[1:]
	if w < 1 || w > 8 {
		return df, fmt.Errorf("mpcnet: DATA value width %d", w)
	}
	// The value section is exactly tuples×arity values of w bytes. This
	// is checked before anything is allocated, and any bytes of that
	// length decode, so validation reads no value.
	if arity > 0 && tuples > uint64(len(c.b)/(arity*w)) || int(tuples)*arity*w != len(c.b) {
		return df, fmt.Errorf("mpcnet: DATA claims %d×%d values of %d bytes, %d bytes remain", tuples, arity, w, len(c.b))
	}
	df.tuples = int64(tuples)
	if d != nil {
		words := int(tuples) * arity
		d.flat = slices.Grow(d.flat[:0], words)[:words]
		decodeValues(d.flat, c.b, w)
		df.attrs, df.flat = d.attrs, d.flat
	}
	return df, nil
}

// decodePayload dispatches on the kind byte — the single entry point
// the fuzzers drive so any byte string exercises every decoder.
func decodePayload(payload []byte) (any, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("mpcnet: empty frame")
	}
	var v [2]uint64
	switch payload[0] {
	case kindHello:
		return decodeHello(payload)
	case kindData:
		return decodeData(payload)
	case kindHelloAck, kindFlush:
		return nil, decodeUints(payload, payload[0], &v[0])
	case kindEnd:
		return nil, decodeUints(payload, kindEnd, &v[0], &v[1])
	case kindBye:
		return nil, decodeUints(payload, kindBye)
	default:
		return nil, fmt.Errorf("mpcnet: unknown frame kind %d", payload[0])
	}
}
