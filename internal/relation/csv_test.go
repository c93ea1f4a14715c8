package relation

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randRel(rng, "R", []string{"x", "y", "z"}, 200, 1000)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("R", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != r.Len() || !got.EqualAsSets(r) {
		t.Fatal("CSV round trip lost tuples")
	}
	for i, a := range got.Attrs() {
		if a != r.Attrs()[i] {
			t.Fatalf("schema changed: %v vs %v", got.Attrs(), r.Attrs())
		}
	}
}

func TestCSVEmptyRelation(t *testing.T) {
	r := New("E", "a", "b")
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("E", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Arity() != 2 {
		t.Fatal("empty relation round trip wrong")
	}
}

func TestCSVNegativeValues(t *testing.T) {
	r := FromRows("R", []string{"v"}, [][]Value{{-5}, {1 << 60}, {0}})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("R", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSets(r) {
		t.Fatal("negative/large values corrupted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("R", strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := ReadCSV("R", strings.NewReader("x,y\n1,notanumber\n")); err == nil {
		t.Fatal("non-integer should error")
	}
	if _, err := ReadCSV("R", strings.NewReader("x,y\n1\n")); err == nil {
		t.Fatal("short row should error")
	}
	// A repeated header column used to reach New's duplicate-attribute
	// panic; mpcserve -data and mpcrun's CSV input both read this path.
	_, err := ReadCSV("R", strings.NewReader("x,y,x\n1,2,3\n"))
	if err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("repeated header column: error %v, want one naming \"x\"", err)
	}
}
