package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// CSV serialization: the header row carries the schema, every further
// row one tuple of int64 values. This is the on-disk interchange format
// for cmd/mpcrun's -csv mode and for users bringing their own data.

// ReadCSV reads an integer CSV with a header row as a relation under
// the given name.
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read header: %w", err)
	}
	for i, a := range header {
		if slices.Contains(header[:i], a) {
			return nil, fmt.Errorf("relation: header repeats column %q", a)
		}
	}
	rel := New(name, header...)
	for line := 2; ; line++ {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: line %d: %w", line, err)
		}
		row := make([]Value, len(record))
		for j, s := range record {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("relation: line %d column %d: %w", line, j+1, err)
			}
			row[j] = v
		}
		rel.AppendRow(row)
	}
	return rel, nil
}
