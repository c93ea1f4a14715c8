package testkit

import (
	"fmt"
	"math/rand"

	"mpcquery/internal/hypergraph"
	"mpcquery/internal/relation"
	"mpcquery/internal/workload"
)

// Skew selects the value distribution of a generated relation's first
// attribute (remaining attributes are always uniform). The differential
// sweeps run every algorithm under every skew; the theory assertions
// (round counts, load bounds) apply the load bound only to SkewNone,
// where every value has degree 1 by construction.
type Skew int

// Supported distributions.
const (
	// SkewNone is the "no skew in the extreme" regime (slide 57):
	// tuple i is (i, i, ..., i), so every value has degree exactly 1.
	SkewNone Skew = iota
	// SkewUniform draws every attribute iid uniformly from [0, Domain).
	SkewUniform
	// SkewZipf draws the first attribute from Zipf(Zipf, v=1) over
	// [0, Domain) — a heavy-tailed degree distribution.
	SkewZipf
	// SkewHeavy plants a single heavy hitter: a HeavyFrac fraction of
	// tuples share the value 0 on the first attribute, the rest are
	// distinct light values.
	SkewHeavy
)

// AllSkews lists every distribution, skew-free first.
var AllSkews = []Skew{SkewNone, SkewUniform, SkewZipf, SkewHeavy}

func (s Skew) String() string {
	switch s {
	case SkewNone:
		return "none"
	case SkewUniform:
		return "uniform"
	case SkewZipf:
		return "zipf"
	case SkewHeavy:
		return "heavy"
	}
	return fmt.Sprintf("skew(%d)", int(s))
}

// Skewed reports whether the distribution can concentrate mass on few
// values. Load-bound assertions are skipped on skewed instances.
func (s Skew) Skewed() bool { return s == SkewZipf || s == SkewHeavy }

// GenConfig controls generated relation shape. The zero value picks
// usable defaults (see withDefaults).
type GenConfig struct {
	// Tuples is the cardinality of each generated relation (default 120).
	Tuples int
	// Domain is the attribute value domain [0, Domain) (default
	// Tuples/3, so joins produce non-trivial output).
	Domain int
	// Zipf is the Zipf exponent for SkewZipf (default 1.5; values ≤ 1
	// are clamped to 1.01, see workload.NewZipfSampler).
	Zipf float64
	// HeavyFrac is the fraction of tuples sharing the planted heavy
	// value under SkewHeavy (default 0.3).
	HeavyFrac float64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Tuples == 0 {
		c.Tuples = 120
	}
	if c.Domain == 0 {
		c.Domain = c.Tuples/3 + 1
	}
	if c.Zipf == 0 {
		c.Zipf = 1.5
	}
	if c.HeavyFrac == 0 {
		c.HeavyFrac = 0.3
	}
	return c
}

// GenRelation generates one relation of cfg.Tuples rows under the given
// skew, deterministically in seed. The first attribute carries the skew;
// all others are uniform (SkewNone makes every attribute the row index).
func GenRelation(name string, attrs []string, skew Skew, cfg GenConfig, seed int64) *relation.Relation {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	var zipf *workload.ZipfSampler
	if skew == SkewZipf {
		zipf = workload.NewZipfSampler(cfg.Zipf, cfg.Domain, seed+1)
	}
	heavyCut := int(float64(cfg.Tuples) * cfg.HeavyFrac)
	r := relation.New(name, attrs...)
	row := make([]relation.Value, len(attrs))
	for i := 0; i < cfg.Tuples; i++ {
		switch skew {
		case SkewNone:
			for j := range row {
				row[j] = relation.Value(i)
			}
		case SkewUniform:
			for j := range row {
				row[j] = relation.Value(rng.Intn(cfg.Domain))
			}
		case SkewZipf:
			row[0] = zipf.Next()
			for j := 1; j < len(row); j++ {
				row[j] = relation.Value(rng.Intn(cfg.Domain))
			}
		case SkewHeavy:
			if i < heavyCut {
				row[0] = 0
			} else {
				// Distinct light values, disjoint from the heavy value.
				row[0] = relation.Value(i + 1)
			}
			for j := 1; j < len(row); j++ {
				row[j] = relation.Value(rng.Intn(cfg.Domain))
			}
		default:
			panic(fmt.Sprintf("testkit: unknown skew %d", skew))
		}
		r.AppendRow(row)
	}
	return r
}

// GenInstance generates one relation per atom of q, each with an
// independent seed derived from the instance seed. Relations are keyed
// by atom name with columns matched positionally to atom variables.
// Each is a set, as relations are once they enter the system: the
// GenRelation draw passed through relation.Relation.Distinct, so a
// relation may hold fewer than cfg.Tuples rows.
func GenInstance(q hypergraph.Query, skew Skew, cfg GenConfig, seed int64) map[string]*relation.Relation {
	rels := make(map[string]*relation.Relation, len(q.Atoms))
	for i, a := range q.Atoms {
		rels[a.Name] = GenRelation(a.Name, a.Vars, skew, cfg, seed*1_000_003+int64(i)*7919).Distinct()
	}
	return rels
}

// RandomQuery returns a random conjunctive query drawn from the four
// structural families the tutorial's algorithms are parameterized by —
// chains, stars, cycles, and the triangle — with 3–5 atoms,
// deterministically in seed.
func RandomQuery(seed int64) hypergraph.Query {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(3)
	switch rng.Intn(4) {
	case 0:
		return hypergraph.Path(n)
	case 1:
		return hypergraph.Star(n)
	case 2:
		return hypergraph.Cycle(n)
	default:
		return hypergraph.Triangle()
	}
}

// Renamed returns rel with its columns renamed positionally to the
// atom's variables — the adapter between generated relations (schema =
// atom variables already) or caller-supplied ones and algorithms that
// want variable-named inputs (e.g. the join2 family).
func Renamed(a hypergraph.Atom, rel *relation.Relation) *relation.Relation {
	return rel.Rename(a.Name, a.Vars...)
}
