//go:build !race

package hot

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
