//go:build race

package federation

// raceEnabled reports a -race build, whose sync.Pool drops puts at random.
const raceEnabled = true
