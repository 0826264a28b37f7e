//go:build race

package mem

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random share of what it is handed, and memory-bound loops run many
// times slower.
const raceEnabled = true
