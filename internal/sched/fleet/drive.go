package fleet

import (
	"fmt"
	"math/rand"
	"time"

	"gaugur/internal/sim"
	"gaugur/internal/stats"
)

// DriveConfig parameterizes one churn run against a Cluster: sessions
// arrive as a non-homogeneous Poisson stream (flash crowds included),
// hold for an exponential duration, and depart.
type DriveConfig struct {
	Cluster *Cluster
	// Crowd shapes the arrival rate over simulated time.
	Crowd sim.FlashCrowd
	// Horizon is the simulated duration in seconds.
	Horizon float64
	// MeanHold is the mean session duration in simulated seconds.
	MeanHold float64
	// Games is the catalog arrivals are drawn from, uniformly.
	Games []int
	// Seed drives the arrival process, game draws, and hold times —
	// independent of the cluster's own Seed, so the same workload can be
	// replayed against different fleet layouts.
	Seed int64
}

// DriveResult summarizes one churn run.
type DriveResult struct {
	Arrivals, Placed, Rejected int
	Departed                   int
	PeakActive                 int
	// MeanDelta is the average predicted total-FPS delta of admitted
	// placements — the quality signal the balancer optimizes.
	MeanDelta float64
	// Escapes is the cluster's counter over the run (a delta, not the
	// lifetime value).
	Escapes int
	// P50 and P99 are wall-clock placement-decision latencies.
	P50, P99 time.Duration
}

// departure is one scheduled session exit in the driver's min-heap.
type departure struct {
	at  float64
	sid int
}

type depHeap []departure

func (h depHeap) less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].sid < h[b].sid
}

func (h *depHeap) push(d departure) {
	*h = append(*h, d)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *depHeap) pop() departure {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.less(l, small) {
			small = l
		}
		if r < last && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// Drive replays the configured arrival/departure stream through the
// cluster. The event sequence is fully determined by (DriveConfig.Seed,
// Crowd, Horizon, MeanHold, Games) — only the latency percentiles are
// wall-clock measurements.
func Drive(cfg DriveConfig) (DriveResult, error) {
	if cfg.Cluster == nil {
		return DriveResult{}, fmt.Errorf("fleet: Drive needs a Cluster")
	}
	if err := cfg.Crowd.Validate(); err != nil {
		return DriveResult{}, err
	}
	if cfg.Horizon <= 0 || cfg.MeanHold <= 0 || len(cfg.Games) == 0 {
		return DriveResult{}, fmt.Errorf("fleet: Drive needs Horizon, MeanHold, Games")
	}
	c := cfg.Cluster
	rng := rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, "fleet-drive", 0)))
	base := c.Stats()

	var res DriveResult
	var deps depHeap
	var lats []time.Duration
	sumDelta := 0.0
	now := 0.0
	for {
		next := cfg.Crowd.Next(now, rng)
		game := cfg.Games[rng.Intn(len(cfg.Games))]
		hold := rng.ExpFloat64() * cfg.MeanHold
		if next > cfg.Horizon {
			break
		}
		// Departures due before this arrival fire first.
		for len(deps) > 0 && deps[0].at <= next {
			d := deps.pop()
			c.Remove(d.sid)
			res.Departed++
		}
		now = next
		res.Arrivals++
		t0 := time.Now()
		pl, ok := c.Place(game)
		lats = append(lats, time.Since(t0))
		if !ok {
			res.Rejected++
			continue
		}
		res.Placed++
		sumDelta += pl.Delta
		deps.push(departure{at: now + hold, sid: pl.Session})
	}
	// Drain departures inside the horizon so the run ends on a realistic
	// residual load rather than the peak.
	for len(deps) > 0 && deps[0].at <= cfg.Horizon {
		d := deps.pop()
		c.Remove(d.sid)
		res.Departed++
	}

	end := c.Stats()
	res.PeakActive = end.PeakActive
	res.Escapes = end.Escapes - base.Escapes
	if res.Placed > 0 {
		res.MeanDelta = sumDelta / float64(res.Placed)
	}
	res.P50, res.P99 = stats.LatencyPercentiles(lats)
	return res, nil
}
