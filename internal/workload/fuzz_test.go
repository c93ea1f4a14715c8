package workload

import (
	"testing"

	"mpcquery/internal/relation"
)

// FuzzZipfSampler fuzzes the generators' skew source: for any exponent,
// domain and seed, every sample must land in [0, domain) and two
// samplers built from identical arguments must produce identical
// streams (the reproducibility contract of every generator built on it).
func FuzzZipfSampler(f *testing.F) {
	f.Add(1.5, 64, int64(1))
	f.Add(1.01, 1, int64(0))
	f.Add(0.2, 1000, int64(-7)) // exponent ≤ 1 exercises the clamp
	f.Add(5.0, 2, int64(1<<40))
	f.Fuzz(func(t *testing.T, s float64, domain int, seed int64) {
		if domain < 1 || domain > 1<<20 {
			t.Skip("domain outside supported range")
		}
		if s != s || s > 1e6 { // NaN or absurd exponents
			t.Skip("degenerate exponent")
		}
		a := NewZipfSampler(s, domain, seed)
		b := NewZipfSampler(s, domain, seed)
		for i := 0; i < 64; i++ {
			va, vb := a.Next(), b.Next()
			if va != vb {
				t.Fatalf("sample %d: %d != %d for identical seeds", i, va, vb)
			}
			if va < 0 || va >= relation.Value(domain) {
				t.Fatalf("sample %d = %d outside [0, %d)", i, va, domain)
			}
		}
	})
}
