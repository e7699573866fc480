package sched

import (
	"fmt"
	"slices"
	"sort"

	"gaugur/internal/core"
	"gaugur/internal/sched/fleet"
)

// Scorer evaluates the predicted TOTAL frame rate a server would deliver if
// it hosted exactly the given game multiset (the empty multiset scores 0).
type Scorer func(games []int) float64

// TotalFPS is the Scorer that sums predict over a server's games at the
// reference resolution, in member order. A positive cap clips each member's
// frame rate first — the QoS-aware variant, for which frame rate above the
// cap adds no value, so the greedy protects sessions near the floor instead
// of piling headroom onto already-fast servers.
func TotalFPS(predict func(c core.Colocation, idx int) float64, cap float64) Scorer {
	return func(games []int) float64 {
		c := core.ColocationOf(games)
		s := 0.0
		for i := range c {
			f := predict(c, i)
			if cap > 0 && f > cap {
				f = cap
			}
			s += f
		}
		return s
	}
}

// Dispatcher assigns gaming requests to a fixed fleet of identical servers.
// Each request goes to the server where the fleet-wide predicted average
// frame rate after assignment is maximal (Section 5.2's rule); since only
// the chosen server changes, that is the server maximizing the DELTA in
// predicted total FPS — which accounts for the interference the newcomer
// inflicts on the incumbents, not just its own frame rate.
type Dispatcher struct {
	// NumServers is the fleet size.
	NumServers int
	// MaxPerServer caps colocation size; <= 0 defaults to 4 (the paper
	// considers colocations of fewer than five games).
	MaxPerServer int
	// Score predicts the total FPS of a hypothetical server content.
	Score Scorer
}

// Assign places the requests (a slice of game IDs, in arrival order) and
// returns the final content of every non-empty server, sorted. It is one
// batch through a single-shard fleet.Cluster, whose state-group index
// memoizes scoring per distinct server state instead of per server: with a
// 10-game study the number of distinct multisets is tiny compared to the
// fleet.
func (d *Dispatcher) Assign(requests []int) ([][]int, error) {
	c, err := fleet.New(fleet.Config{
		NumServers:   d.NumServers,
		MaxPerServer: d.MaxPerServer,
		Scorer:       fleet.ScorerFunc(d.Score),
	})
	if err != nil {
		return nil, fmt.Errorf("sched: dispatcher: %w", err)
	}
	defer c.Close()
	if capacity := c.Capacity(); len(requests) > capacity {
		return nil, fmt.Errorf("sched: %d requests exceed fleet capacity %d", len(requests), capacity)
	}
	for i, r := range c.PlaceBatch(requests, nil) {
		if !r.OK {
			return nil, fmt.Errorf("sched: no server can take game %d", requests[i])
		}
	}
	var out [][]int
	for _, games := range c.Snapshot() {
		if len(games) > 0 {
			out = append(out, games)
		}
	}
	slices.SortFunc(out, slices.Compare[[]int])
	return out, nil
}

// WorstFit assigns each request to the server with the most remaining
// capacity (the Section 5.2 VBP baseline). demandOf returns the scalar
// demand a game adds; capacity is the per-server total.
func WorstFit(requests []int, numServers int, maxPerServer int, capacity float64, demandOf func(game int) float64) ([][]int, error) {
	if numServers <= 0 {
		return nil, fmt.Errorf("sched: worst-fit needs at least one server")
	}
	if maxPerServer <= 0 {
		maxPerServer = 4
	}
	if len(requests) > numServers*maxPerServer {
		return nil, fmt.Errorf("sched: %d requests exceed fleet capacity %d", len(requests), numServers*maxPerServer)
	}
	remaining := make([]float64, numServers)
	for i := range remaining {
		remaining[i] = capacity
	}
	content := make([][]int, numServers)

	for _, g := range requests {
		best := -1
		for s := 0; s < numServers; s++ {
			if len(content[s]) >= maxPerServer {
				continue
			}
			if best < 0 || remaining[s] > remaining[best] {
				best = s
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("sched: no server can take game %d", g)
		}
		content[best] = append(content[best], g)
		remaining[best] -= demandOf(g)
	}

	var out [][]int
	for _, c := range content {
		if len(c) > 0 {
			sort.Ints(c)
			out = append(out, c)
		}
	}
	return out, nil
}

// ExpandRequests turns a demand map into a deterministic round-robin
// arrival sequence (interleaved across games, the way a mixed request
// stream would arrive).
func ExpandRequests(demand map[int]int) []int {
	ids := make([]int, 0, len(demand))
	for id := range demand {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	left := make(map[int]int, len(demand))
	total := 0
	for id, n := range demand {
		left[id] = n
		total += n
	}
	out := make([]int, 0, total)
	for total > 0 {
		for _, id := range ids {
			if left[id] > 0 {
				out = append(out, id)
				left[id]--
				total--
			}
		}
	}
	return out
}

// EvaluateFleet measures (noise-free) the actual frame rate of every game
// hosted by the fleet and returns them all — the population behind Figure
// 10's averages and CDFs.
func EvaluateFleet(lab *core.Lab, servers [][]int) []float64 {
	var fps []float64
	for _, games := range servers {
		fps = append(fps, lab.ExpectedFPS(core.ColocationOf(games))...)
	}
	return fps
}
