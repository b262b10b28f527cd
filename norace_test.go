//go:build !race

package drams_test

// raceEnabled reports a -race build, whose sync.Pool drops puts at random.
const raceEnabled = false
