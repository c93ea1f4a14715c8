package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// The JSONL codec is the machine-readable export: one JSON object per
// event, fields in Event declaration order, zero-valued fields omitted.
// Encoding is deterministic — equal event slices produce byte-identical
// output — and exact: ReadJSONL(WriteJSONL(events)) reproduces the
// events field-for-field (floats are emitted in Go's shortest
// round-tripping form). FuzzTraceRoundTrip holds the codec to that
// contract.

// WriteFile writes events to path: JSON lines when it ends in .jsonl,
// Chrome trace_event JSON (WriteChrome) otherwise.
func WriteFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := WriteChrome
	if strings.HasSuffix(path, ".jsonl") {
		write = WriteJSONL
	}
	err = write(f, events)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteJSONL writes events as JSON lines.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			return fmt.Errorf("trace: encode event %d: %w", i, err)
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// MarshalJSONL returns the JSONL encoding of events.
func MarshalJSONL(events []Event) []byte {
	var buf bytes.Buffer
	// Buffer writes cannot fail; an encode error here means an event
	// holds a non-finite float, which the recorder never produces.
	if err := WriteJSONL(&buf, events); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// ReadJSONL parses a JSONL trace back into events. Parsing is strict:
// every line must be a JSON object with only known Event fields, so
// format drift between writer and reader fails loudly instead of
// silently dropping data. Blank lines (including the trailing newline)
// are permitted.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		// Reject trailing garbage after the object on the same line.
		if dec.More() {
			return nil, fmt.Errorf("trace: line %d: trailing data after event", line)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return events, nil
}
