//go:build race

package parallel

// raceEnabled reports whether the test binary runs under the race
// detector, which makes sync.Pool drop Puts at random.
const raceEnabled = true
