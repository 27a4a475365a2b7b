//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops items at random.
const raceEnabled = true
