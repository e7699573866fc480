//go:build !race

package fleet

// raceEnabled reports that this binary was built with the race detector.
const raceEnabled = false
