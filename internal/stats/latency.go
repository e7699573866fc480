package stats

import (
	"sort"
	"time"
)

// LatencyPercentiles reduces a batch of wall-clock latencies to the p50/p99
// pair the serve load generator reports. The slice is sorted in place; empty
// input yields (0, 0). The indexing is len/2 and len*99/100 order statistics,
// no interpolation.
func LatencyPercentiles(lats []time.Duration) (p50, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], lats[len(lats)*99/100]
}
