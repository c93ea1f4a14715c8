// Package chaos provides deterministic, seeded fault schedules for the
// MPC simulator. A Schedule implements mpc.FaultInjector: given a seed
// and a rate configuration it decides — as a pure function of
// (seed, round, attempt, server/fragment coordinates) — which servers
// straggle or crash and which message fragments are dropped or
// duplicated. Equal configurations therefore produce bit-for-bit equal
// fault sequences, recoveries and outputs: a failure observed under a
// schedule is reproduced exactly by re-running with the same compact
// spec (see Parse), which is what Report prints.
//
// Fault persistence is bounded: each fault point re-fires on at most
// Persist consecutive delivery attempts, so whenever the replay budget
// (Attempts) exceeds Persist every round is guaranteed to recover. A
// schedule with Persist ≥ Attempts can produce permanent faults — the
// regime used to test the failure path.
package chaos

import (
	"fmt"
	"math"

	"mpcquery/internal/mpc"
)

// Defaults applied by New for zero-valued Config knobs.
const (
	DefaultMaxDelay = 8
	DefaultPersist  = 2
	DefaultAttempts = 8
)

// Config is a fault schedule specification. The zero value of each
// knob (other than the probabilities) falls back to the Default*
// constant at schedule construction; a zero probability disables that
// fault class. Config round-trips through its compact text form: see
// Parse and String.
type Config struct {
	// Seed drives every fault decision.
	Seed uint64
	// Drop and Dup are per-fragment, per-round probabilities of a
	// transit loss or a wire duplicate. Crash is the per-(round, server)
	// probability of a crash at the round's delivery boundary. Straggle
	// is the per-(round, server) probability of straggling. All must
	// lie in [0, 1].
	Drop, Dup, Crash, Straggle float64
	// MaxDelay is the largest straggler delay in simulated units; a
	// straggling server is delayed by 1..MaxDelay units.
	MaxDelay int64
	// Persist is the maximum number of consecutive delivery attempts a
	// single fault point re-fires on (1 = every fault is transient).
	Persist int
	// Attempts is the per-round replay budget handed to the recovery
	// driver.
	Attempts int
	// After gates the whole schedule to late rounds: no fault of any
	// class fires before metered round index After (zero-based, the same
	// index the recovery driver passes in). Zero means faults are live
	// from the first round. Iterative workloads use this to aim faults
	// *between* fixpoint iterations rather than at the setup rounds.
	After int
}

func (c Config) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", c.Drop}, {"dup", c.Dup}, {"crash", c.Crash}, {"straggle", c.Straggle}} {
		if math.IsNaN(r.v) || r.v < 0 || r.v > 1 {
			return fmt.Errorf("chaos: rate %s=%v outside [0, 1]", r.name, r.v)
		}
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("chaos: delay %d < 0", c.MaxDelay)
	}
	if c.Persist < 0 {
		return fmt.Errorf("chaos: persist %d < 0", c.Persist)
	}
	if c.Attempts < 0 {
		return fmt.Errorf("chaos: attempts %d < 0", c.Attempts)
	}
	if c.After < 0 {
		return fmt.Errorf("chaos: after %d < 0", c.After)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxDelay == 0 {
		c.MaxDelay = DefaultMaxDelay
	}
	if c.Persist == 0 {
		c.Persist = DefaultPersist
	}
	if c.Attempts == 0 {
		c.Attempts = DefaultAttempts
	}
	return c
}

// Schedule is a deterministic fault schedule; it implements
// mpc.FaultInjector and is safe for concurrent use (it is immutable
// after construction).
type Schedule struct {
	cfg Config // normalized: defaults applied
	raw Config // as written, for Config()/String round-trips
}

var _ mpc.FaultInjector = (*Schedule)(nil)

// New builds a schedule from cfg, validating rates and applying
// defaults to zero-valued knobs.
func New(cfg Config) (*Schedule, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Schedule{cfg: cfg.withDefaults(), raw: cfg}, nil
}

// Config returns the configuration as written (defaults not
// materialized), so Config().String() reproduces the original spec.
func (s *Schedule) Config() Config { return s.raw }

// Fault-point kinds, mixed into the hash so the decision streams of
// different fault classes are independent.
const (
	kindDrop = 1 + iota
	kindDup
	kindCrash
	kindStraggle
	kindDelay
)

// splitmix64 is the finalizer used throughout the repo for seed mixing.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash derives the decision word of one fault point. Every coordinate
// passes through the full finalizer so nearby points are uncorrelated.
func (s *Schedule) hash(kind int, coords ...int) uint64 {
	h := splitmix64(s.cfg.Seed ^ uint64(kind)*0x9e3779b97f4a7c15)
	for _, c := range coords {
		h = splitmix64(h ^ uint64(c+1)*0xbf58476d1ce4e5b9)
	}
	return h
}

// prob maps a hash to a uniform [0, 1) sample.
func prob(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// persistence returns how many consecutive attempts the fault point
// with decision word h re-fires: uniform in [1, Persist].
func (s *Schedule) persistence(h uint64) int {
	if s.cfg.Persist <= 1 {
		return 1
	}
	return 1 + int((h>>7)%uint64(s.cfg.Persist))
}

// StragglerUnits implements mpc.FaultInjector.
func (s *Schedule) StragglerUnits(round, server int) int64 {
	if round < s.cfg.After {
		return 0
	}
	if s.cfg.Straggle == 0 || s.cfg.MaxDelay <= 0 {
		return 0
	}
	if prob(s.hash(kindStraggle, round, server)) >= s.cfg.Straggle {
		return 0
	}
	return 1 + int64(s.hash(kindDelay, round, server)%uint64(s.cfg.MaxDelay))
}

// CrashedAt implements mpc.FaultInjector: a crash point fires from
// attempt 0 for its full persistence (the server is down until its
// restart completes).
func (s *Schedule) CrashedAt(round, attempt, server int) bool {
	if round < s.cfg.After {
		return false
	}
	if s.cfg.Crash == 0 {
		return false
	}
	h := s.hash(kindCrash, round, server)
	return prob(h) < s.cfg.Crash && attempt < s.persistence(h)
}

// FragmentFate implements mpc.FaultInjector. Drop shadows duplicate
// when both fire for the same fragment.
func (s *Schedule) FragmentFate(round, attempt, src, dst, streamIdx int) mpc.FaultFate {
	if round < s.cfg.After {
		return mpc.FateDeliver
	}
	if s.cfg.Drop > 0 {
		if h := s.hash(kindDrop, round, src, dst, streamIdx); prob(h) < s.cfg.Drop && attempt < s.persistence(h) {
			return mpc.FateDrop
		}
	}
	if s.cfg.Dup > 0 {
		if h := s.hash(kindDup, round, src, dst, streamIdx); prob(h) < s.cfg.Dup && attempt < s.persistence(h) {
			return mpc.FateDuplicate
		}
	}
	return mpc.FateDeliver
}

// MaxAttempts implements mpc.FaultInjector.
func (s *Schedule) MaxAttempts() int { return s.cfg.Attempts }

// BackoffUnits implements mpc.FaultInjector: exponential in the
// attempt, capped at 64 units.
func (s *Schedule) BackoffUnits(attempt int) int64 {
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 6 {
		attempt = 6
	}
	return 1 << uint(attempt)
}
