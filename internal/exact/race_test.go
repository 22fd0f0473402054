//go:build race

package exact_test

const raceEnabled = true
