//go:build !race

package mem

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
