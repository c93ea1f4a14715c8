package testkit

import (
	"testing"

	"mpcquery/internal/relation"
)

// TestGenRelationDeterministic: identical (skew, cfg, seed) must yield
// bit-identical relations; different seeds must differ.
func TestGenRelationDeterministic(t *testing.T) {
	for _, skew := range AllSkews {
		a := GenRelation("R", []string{"x", "y"}, skew, GenConfig{}, 42)
		b := GenRelation("R", []string{"x", "y"}, skew, GenConfig{}, 42)
		if !a.EqualAsSets(b) || a.Len() != b.Len() {
			t.Fatalf("%s: same seed produced different relations", skew)
		}
		if skew != SkewNone { // SkewNone ignores the seed by design
			c := GenRelation("R", []string{"x", "y"}, skew, GenConfig{}, 43)
			same := a.Len() == c.Len() && a.EqualAsSets(c)
			if same {
				t.Fatalf("%s: different seeds produced identical relations", skew)
			}
		}
	}
}

// TestGenRelationShape checks cardinality, arity, and per-skew value
// invariants (domain ranges, degree structure).
func TestGenRelationShape(t *testing.T) {
	cfg := GenConfig{Tuples: 500, Domain: 50}
	for _, skew := range AllSkews {
		r := GenRelation("R", []string{"a", "b", "c"}, skew, cfg, 9)
		if r.Len() != 500 || r.Arity() != 3 {
			t.Fatalf("%s: got %d×%d, want 500×3", skew, r.Len(), r.Arity())
		}
		deg := map[relation.Value]int{}
		for i := 0; i < r.Len(); i++ {
			deg[r.Row(i)[0]]++
		}
		switch skew {
		case SkewNone:
			for v, d := range deg {
				if d != 1 {
					t.Fatalf("none: value %d has degree %d, want 1", v, d)
				}
			}
		case SkewUniform, SkewZipf:
			for i := 0; i < r.Len(); i++ {
				if v := r.Row(i)[0]; v < 0 || v >= relation.Value(cfg.Domain) {
					t.Fatalf("%s: value %d outside [0, %d)", skew, v, cfg.Domain)
				}
			}
		case SkewHeavy:
			if deg[0] != 150 { // 0.3 · 500 planted copies of the heavy value
				t.Fatalf("heavy: heavy value degree %d, want 150", deg[0])
			}
			for v, d := range deg {
				if v != 0 && d != 1 {
					t.Fatalf("heavy: light value %d has degree %d, want 1", v, d)
				}
			}
		}
	}
}

// TestSkewedDistributionsAreSkewed: the two skewed generators must
// produce a max degree well above the skew-free ones, otherwise the
// "at least one skewed distribution" sweep requirement is vacuous.
func TestSkewedDistributionsAreSkewed(t *testing.T) {
	cfg := GenConfig{Tuples: 1000, Domain: 100}
	maxDeg := func(skew Skew) int {
		r := GenRelation("R", []string{"x", "y"}, skew, cfg, 3)
		deg := map[relation.Value]int{}
		for i := 0; i < r.Len(); i++ {
			deg[r.Row(i)[0]]++
		}
		m := 0
		for _, d := range deg {
			if d > m {
				m = d
			}
		}
		return m
	}
	uniform := maxDeg(SkewUniform)
	if z := maxDeg(SkewZipf); z < 4*uniform {
		t.Errorf("zipf max degree %d not ≫ uniform %d", z, uniform)
	}
	if h := maxDeg(SkewHeavy); h != 300 {
		t.Errorf("heavy max degree %d, want exactly 300", h)
	}
}

// TestRandomQueryCoverage: the query generator must hit all four
// families across a modest seed range.
func TestRandomQueryCoverage(t *testing.T) {
	families := map[string]bool{}
	for seed := int64(0); seed < 40; seed++ {
		q := RandomQuery(seed)
		switch {
		case q.Name == "triangle":
			families["triangle"] = true
		case len(q.Name) >= 4 && q.Name[:4] == "path":
			families["path"] = true
		case len(q.Name) >= 4 && q.Name[:4] == "star":
			families["star"] = true
		case len(q.Name) >= 5 && q.Name[:5] == "cycle":
			families["cycle"] = true
		default:
			t.Fatalf("unexpected query family: %s", q.Name)
		}
	}
	for _, f := range []string{"triangle", "path", "star", "cycle"} {
		if !families[f] {
			t.Errorf("family %s never generated", f)
		}
	}
}
