//go:build race

package core

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it (sync.Pool drops a share
// of what it is given there, so pooled paths allocate).
const raceEnabled = true
