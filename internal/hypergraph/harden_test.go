package hypergraph

import (
	"strings"
	"testing"
)

// Regression tests for the untrusted-input hardening: every
// construction defect that used to panic inside NewQuery must surface
// as an error from TryNewQuery (which untrusted input reaches through
// the internal/query frontend), while NewQuery keeps its panicking
// contract for handwritten queries.

func TestTryNewQueryErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		atoms []Atom
		want  string
	}{
		{
			"duplicate atom name",
			[]Atom{{Name: "R", Vars: []string{"x"}}, {Name: "R", Vars: []string{"y"}}},
			"hypergraph: duplicate atom name R",
		},
		{
			"repeated variable",
			[]Atom{{Name: "R", Vars: []string{"x", "x"}}},
			"hypergraph: atom R repeats variable x",
		},
		{
			"no variables",
			[]Atom{{Name: "R", Vars: nil}},
			"hypergraph: atom R has no variables",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := TryNewQuery("q", tc.atoms...)
			if err == nil {
				t.Fatalf("expected error %q, got nil", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err.Error(), tc.want)
			}
		})
	}
}

func TestTryNewQueryValid(t *testing.T) {
	q, err := TryNewQuery("tri",
		Atom{Name: "R", Vars: []string{"x", "y"}},
		Atom{Name: "S", Vars: []string{"y", "z"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "tri" || len(q.Atoms) != 2 {
		t.Fatalf("unexpected query %v", q)
	}
}

// NewQuery keeps panicking for handwritten construction so internal
// bugs stay loud; the panic message is the TryNewQuery error.
func TestNewQueryStillPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "duplicate atom name") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	NewQuery("q", Atom{Name: "R", Vars: []string{"x"}}, Atom{Name: "R", Vars: []string{"y"}})
}
