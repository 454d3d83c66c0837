//go:build race

package privehd

// raceEnabled reports that the race detector is active: sync.Pool drops
// puts at random under the detector, so allocation assertions cannot hold
// and are skipped.
const raceEnabled = true
