package fleet

import "testing"

// cacheGet is lookup-or-compute-and-put, the way a probe uses the cache.
func cacheGet(c *scoreCache, k uint64, miss func() float64) float64 {
	if v, ok := c.Lookup(k); ok {
		return v
	}
	v := miss()
	c.Put(k, v)
	return v
}

// Bounded-memo satellite: the greedy score cache must not grow without
// limit, and eviction must not change results.
func TestScoreCacheCapHolds(t *testing.T) {
	misses := 0
	c := newScoreCache(4)
	get := func(k uint64) float64 {
		return cacheGet(c, k, func() float64 { misses++; return float64(k) })
	}
	for k := uint64(1); k <= 10; k++ {
		get(k)
	}
	if c.Len() > 4 {
		t.Fatalf("cache holds %d entries, cap is 4", c.Len())
	}
	if misses != 10 {
		t.Fatalf("misses %d, want 10 distinct inserts", misses)
	}
	// The most recent keys are resident; the oldest were evicted and miss
	// again (recomputing the same value).
	get(10)
	if misses != 10 {
		t.Error("recent key should hit")
	}
	if v := get(1); v != 1 {
		t.Errorf("recomputed value %v, want 1", v)
	}
	if misses != 11 {
		t.Error("evicted key should miss")
	}
	if c.Len() > 4 {
		t.Errorf("cache grew past cap after churn: %d", c.Len())
	}
}

// A cache at capacity must keep serving hits for every resident key —
// eviction replaces exactly the oldest entry and touches nothing else.
func TestScoreCacheFullStillServesHits(t *testing.T) {
	const cap = 8
	c := newScoreCache(cap)
	misses := 0
	get := func(k uint64) float64 {
		return cacheGet(c, k, func() float64 { misses++; return float64(k * 3) })
	}
	for k := uint64(1); k <= cap; k++ {
		get(k)
	}
	if c.Len() != cap || misses != cap {
		t.Fatalf("warmup: len %d misses %d, want %d each", c.Len(), misses, cap)
	}
	// Every resident key hits, repeatedly, with the cache full.
	for round := 0; round < 3; round++ {
		for k := uint64(1); k <= cap; k++ {
			if v := get(k); v != float64(k*3) {
				t.Fatalf("full-cache hit for %d returned %v", k, v)
			}
		}
	}
	if misses != cap {
		t.Fatalf("full-cache hits recomputed: %d misses, want %d", misses, cap)
	}
	// One insert past cap evicts exactly the oldest key (1); all others
	// still hit.
	get(100)
	if v := get(2); v != 6 || misses != cap+1 {
		t.Fatalf("post-evict hit broken: v=%v misses=%d", v, misses)
	}
	get(1) // evicted → miss
	if misses != cap+2 {
		t.Fatalf("oldest key should have been evicted: misses=%d", misses)
	}
	if c.Len() > cap {
		t.Fatalf("cache len %d past cap %d", c.Len(), cap)
	}
}

// Eviction is O(1) in-place ring overwrite: no auxiliary structure grows
// with churn, however far past the cap the stream runs.
func TestScoreCacheEvictionConstantSpace(t *testing.T) {
	c := newScoreCache(3)
	for i := uint64(0); i < 1000; i++ {
		k := i
		cacheGet(c, k, func() float64 { return float64(k) })
	}
	if c.Len() > 3 {
		t.Errorf("cache len %d after heavy churn, cap 3", c.Len())
	}
	if len(c.ring) != 3 || cap(c.ring) > 8 {
		t.Errorf("ring grew with churn: len %d cap %d, want len 3", len(c.ring), cap(c.ring))
	}
	if c.head < 0 || c.head >= 3 {
		t.Errorf("ring head out of range: %d", c.head)
	}
}
