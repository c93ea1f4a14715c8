//go:build race

package relation

// raceEnabled reports a race-detector build, where sync.Pool drops a
// random share of what is put back, so pooled allocation counts do not
// repeat.
const raceEnabled = true
