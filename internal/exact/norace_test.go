//go:build !race

package exact_test

const raceEnabled = false
