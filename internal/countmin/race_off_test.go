//go:build !race

package countmin

// See race_on_test.go: the allocation count is checked without the detector.
const raceEnabled = false
