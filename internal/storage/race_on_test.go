//go:build race

package storage

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// random share of what is Put, so allocation gates over pooled scratch
// cannot hold to an exact count.
const raceEnabled = true
