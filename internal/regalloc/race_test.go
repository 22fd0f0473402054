//go:build race

package regalloc

const raceEnabled = true
