package fleet

import "gaugur/internal/sim"

// Score memoization for the shard probe: an order-invariant multiset hash
// identifying a candidate colocation, and a FIFO-bounded map memoizing the
// scorer's answer per state.

// defaultCacheCap bounds a shard's score memo. A week-long churn stream
// visits unboundedly many distinct states, so the memo evicts FIFO past
// this many entries instead of growing memory without limit.
const defaultCacheCap = 1 << 14

// multisetHash folds a game multiset into a 64-bit key by summing each
// id through sim.Mix64. Addition commutes, so the hash is
// order-invariant — hash(occupants ∪ {g}) is hash(occupants) +
// Mix64(g), computable without materializing the candidate slice — and
// the mixer spreads ids across the full word so sums of small ids do not
// collide. The empty multiset hashes to zero.
func multisetHash(games []int) uint64 {
	var h uint64
	for _, g := range games {
		h += sim.Mix64(uint64(g))
	}
	return h
}

// scoreCache is a FIFO-bounded uint64->float64 memo. Eviction order never
// affects results (the scorer is pure); the bound only caps memory. The
// insertion order lives in a fixed ring, so every operation — hit, insert,
// or insert-with-eviction — is O(1) with no compaction pauses, and a hit
// allocates nothing.
type scoreCache struct {
	limit int
	m     map[uint64]float64
	ring  []uint64 // insertion order; grows to limit, then overwrites
	head  int      // oldest entry once the ring is full
}

// newScoreCache returns a cache bounded to limit entries (the default cap
// when limit <= 0).
func newScoreCache(limit int) *scoreCache {
	if limit <= 0 {
		limit = defaultCacheCap
	}
	return &scoreCache{limit: limit, m: make(map[uint64]float64)}
}

// Lookup reports the memoized value for k, if present.
func (c *scoreCache) Lookup(k uint64) (float64, bool) {
	v, ok := c.m[k]
	return v, ok
}

// Put stores k's value, evicting the oldest entry when full. Re-putting a
// present key overwrites the value without consuming a ring slot.
func (c *scoreCache) Put(k uint64, v float64) {
	if _, ok := c.m[k]; ok {
		c.m[k] = v
		return
	}
	if len(c.ring) < c.limit {
		c.ring = append(c.ring, k)
	} else {
		// Full: overwrite the oldest ring slot in place.
		delete(c.m, c.ring[c.head])
		c.ring[c.head] = k
		c.head++
		if c.head == c.limit {
			c.head = 0
		}
	}
	c.m[k] = v
}

// Len reports the number of memoized entries.
func (c *scoreCache) Len() int { return len(c.m) }
