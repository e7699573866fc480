//go:build !race

package serve

// raceEnabled reports that this binary was built with the race detector.
const raceEnabled = false
