//go:build race

package cache

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random share of what it is handed, so a released level is not always
// the one the next build gets.
const raceEnabled = true
