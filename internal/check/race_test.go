//go:build race

package check_test

const raceEnabled = true
