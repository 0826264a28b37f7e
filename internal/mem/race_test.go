//go:build race

package mem

// raceEnabled reports a race-detector build. Under it memory-bound loops
// run many times slower.
const raceEnabled = true
