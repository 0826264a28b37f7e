//go:build !race

package torture

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
