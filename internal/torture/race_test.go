//go:build race

package torture

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random share of what it is handed, so released cache levels, storage
// chunks and engine scratch are rebuilt and a schedule's allocation is not
// the program's own.
const raceEnabled = true
