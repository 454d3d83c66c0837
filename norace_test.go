//go:build !race

package privehd

// raceEnabled reports that the race detector is inactive.
const raceEnabled = false
