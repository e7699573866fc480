//go:build race

package serve

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool deliberately drops items and allocation counts of
// pooled paths mean nothing.
const raceEnabled = true
