package testkit

import "testing"

// FuzzGenRelation fuzzes the relation generator across all skews: the
// output must always have the requested cardinality and schema, be
// seed-deterministic, and keep domain-bounded attributes in range.
func FuzzGenRelation(f *testing.F) {
	f.Add(100, 10, int64(1), 0)
	f.Add(1, 1, int64(-1), 3)
	f.Add(0, 0, int64(99), 2)
	f.Fuzz(func(t *testing.T, tuples, domain int, seed int64, skewRaw int) {
		if tuples < 0 || tuples > 5000 || domain < 0 || domain > 1<<20 {
			t.Skip("size outside supported range")
		}
		skew := AllSkews[((skewRaw%len(AllSkews))+len(AllSkews))%len(AllSkews)]
		cfg := GenConfig{Tuples: tuples, Domain: domain}
		a := GenRelation("R", []string{"x", "y"}, skew, cfg, seed)
		b := GenRelation("R", []string{"x", "y"}, skew, cfg, seed)
		wantLen := cfg.withDefaults().Tuples
		if a.Len() != wantLen || a.Arity() != 2 {
			t.Fatalf("%s: got %d×%d, want %d×2", skew, a.Len(), a.Arity(), wantLen)
		}
		if !BagEqual(a, b) {
			t.Fatalf("%s: same seed produced different relations", skew)
		}
	})
}
