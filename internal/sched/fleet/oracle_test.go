package fleet

// The reference implementations the cluster is pinned to: the paper's
// Section 5.2 rule and the least-loaded strawman written out as flat,
// uncached scans over every server. Nothing outside the tests runs them.

// flatPolicy picks a server for an arriving game given the contents of
// every server (nil = idle); ok=false rejects.
type flatPolicy func(contents [][]int, game int) (server int, ok bool)

func (f flatPolicy) Place(contents [][]int, game int) (int, bool) { return f(contents, game) }

// flatGreedy takes the server with the best predicted total-FPS delta,
// lowest id on ties, scoring every candidate from scratch.
func flatGreedy(score func(games []int) float64, max int) flatPolicy {
	return func(contents [][]int, game int) (int, bool) {
		best, bestDelta, found := -1, 0.0, false
		for s, occ := range contents {
			if len(occ) >= max {
				continue
			}
			delta := score(insertSorted(occ, game))
			if len(occ) > 0 {
				delta -= score(occ)
			}
			if !found || delta > bestDelta {
				found, best, bestDelta = true, s, delta
			}
		}
		return best, found
	}
}

// flatLeastLoaded takes the server with the fewest sessions, lowest id on
// ties.
func flatLeastLoaded(max int) flatPolicy {
	return func(contents [][]int, game int) (int, bool) {
		best, bestN := -1, max
		for s, occ := range contents {
			if len(occ) < bestN {
				best, bestN = s, len(occ)
			}
		}
		return best, best >= 0
	}
}
