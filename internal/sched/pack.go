// Package sched implements the two interference-aware resource-management
// problems of Section 5: packing gaming requests onto the fewest servers
// under a QoS guarantee (Algorithm 1), and dispatching requests onto a
// fixed server fleet to maximize average frame rate. It also provides the
// worst-fit VBP dispatcher used as a baseline.
package sched

import (
	"sort"

	"gaugur/internal/core"
)

// ColocSet is a set of distinct game IDs sharing one server, kept sorted.
type ColocSet []int

// canonical sorts a copy of ids.
func canonical(ids []int) ColocSet {
	out := append(ColocSet(nil), ids...)
	sort.Ints(out)
	return out
}

// EnumerateSubsets returns every non-empty subset of ids with size at most
// maxSize, in deterministic order. For the paper's 10-game study with
// maxSize 4 this yields the 385 colocations of Section 5.1.
func EnumerateSubsets(ids []int, maxSize int) []ColocSet {
	var out []ColocSet
	n := len(ids)
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) > 0 {
			out = append(out, canonical(cur))
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, ids[i]))
		}
	}
	rec(0, nil)
	return out
}

// Colocation converts the game-ID set into a core.Colocation at the
// reference resolution.
func (s ColocSet) Colocation() core.Colocation { return core.ColocationOf(s) }

// PackResult reports how Algorithm 1 placed the requests.
type PackResult struct {
	// Servers lists the colocation assigned to each allocated server.
	Servers []ColocSet
	// Unplaceable counts requests for games with no feasible colocation
	// at all (not even solo); they still receive dedicated servers,
	// which are included in Servers.
	Unplaceable int
}

// NumServers returns the total server count.
func (p PackResult) NumServers() int { return len(p.Servers) }

// PackRequests implements Algorithm 1 (Interference-aware Request
// Assignment): repeatedly take the largest feasible colocation whose games
// all still have pending requests, allocate one server for it, and retire
// colocations that can no longer be filled. The greedy set-cover structure
// gives the ln(k) approximation the paper cites.
//
// feasible is the list of colocations the methodology under test has
// identified as feasible; demand maps game ID to its pending request count.
func PackRequests(feasible []ColocSet, demand map[int]int) PackResult {
	remaining := make(map[int]int, len(demand))
	total := 0
	for id, n := range demand {
		remaining[id] = n
		total += n
	}

	// Largest first; ties broken by lexical order for determinism.
	f := make([]ColocSet, len(feasible))
	copy(f, feasible)
	sort.Slice(f, func(i, j int) bool {
		if len(f[i]) != len(f[j]) {
			return len(f[i]) > len(f[j])
		}
		for k := range f[i] {
			if f[i][k] != f[j][k] {
				return f[i][k] < f[j][k]
			}
		}
		return false
	})

	var result PackResult
	for total > 0 && len(f) > 0 {
		c := f[0]
		ok := true
		for _, id := range c {
			if remaining[id] <= 0 {
				ok = false
				break
			}
		}
		if !ok {
			f = f[1:]
			continue
		}
		result.Servers = append(result.Servers, c)
		for _, id := range c {
			remaining[id]--
			total--
		}
	}

	// Games with pending requests but no surviving feasible colocation
	// (e.g. their solo run already violates QoS) get dedicated servers.
	ids := make([]int, 0, len(remaining))
	for id := range remaining {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		for remaining[id] > 0 {
			result.Servers = append(result.Servers, ColocSet{id})
			remaining[id]--
			result.Unplaceable++
		}
	}
	return result
}

// SpreadRequests distributes total requests across the game IDs using the
// given weights (nil for uniform), deterministically: each game receives
// floor(share) and the largest remainders absorb the leftovers.
func SpreadRequests(ids []int, total int, weights []float64) map[int]int {
	if len(ids) == 0 || total <= 0 {
		return map[int]int{}
	}
	w := weights
	if w == nil {
		w = make([]float64, len(ids))
		for i := range w {
			w[i] = 1
		}
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	type frac struct {
		id   int
		rem  float64
		base int
	}
	fr := make([]frac, len(ids))
	assigned := 0
	for i, id := range ids {
		exact := float64(total) * w[i] / sum
		base := int(exact)
		fr[i] = frac{id: id, rem: exact - float64(base), base: base}
		assigned += base
	}
	sort.Slice(fr, func(i, j int) bool {
		if fr[i].rem != fr[j].rem {
			return fr[i].rem > fr[j].rem
		}
		return fr[i].id < fr[j].id
	})
	out := make(map[int]int, len(ids))
	left := total - assigned
	for i, f := range fr {
		n := f.base
		if i < left {
			n++
		}
		out[f.id] = n
	}
	return out
}
