package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"gaugur/internal/sched/fleet"
)

// The ladder replays one op sequence from a single goroutine against each
// layer in turn, every rung on a fresh stack of the workload's fixture:
// HTTP, binary, Pipeline.Admit/Leave, Cluster.PlaceBatch/Remove, and the
// scorer alone. With one caller nothing overlaps, so a rung's time minus
// the time of the rung below it is that layer's own cost per op, and the
// fleet's counters repeat exactly.

// ladderOp is one op of the replayed sequence.
type ladderOp struct {
	leave bool
	game  int
	ref   int // leave: index of the admit whose session it returns
}

// ladderOps is the first n ops of the round-robin merge of the workload's
// worker streams: a pure function of the seed.
func ladderOps(wl *workload, m *model, seed int64, n int) []ladderOp {
	streams := make([]*stream, wl.workers())
	for i := range streams {
		streams[i] = wl.newStream(m, seed, i)
	}
	holding := make([][]int, len(streams))
	ops := make([]ladderOp, 0, n)
	for i := 0; len(ops) < n; i++ {
		w := i % len(streams)
		leave, game := streams[w].next(len(holding[w]))
		if !leave {
			holding[w] = append(holding[w], len(ops))
			ops = append(ops, ladderOp{game: game})
		} else if len(holding[w]) > 0 {
			ops = append(ops, ladderOp{leave: true, ref: holding[w][0]})
			holding[w] = holding[w][1:]
		}
	}
	return ops
}

// rung is one replay's outcome.
type rung struct {
	servers []int // per op: the chosen server, -1 for a leave
	failed  int
	elapsed time.Duration
	mallocs uint64
	// fleet rung only
	placeNS, removeNS time.Duration
	arrivals, leaves  int
	stats             fleet.Stats
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayClient drives ops one at a time through a client.
func replayClient(ops []ladderOp, cl client) rung {
	r := rung{servers: make([]int, len(ops))}
	sessions := make([]int, len(ops))
	m0 := mallocs()
	start := time.Now()
	for i, op := range ops {
		r.servers[i] = -1
		var err error
		if op.leave {
			err = cl.Leave(sessions[op.ref])
		} else {
			sessions[i], r.servers[i], err = cl.Admit(op.game)
		}
		if err != nil {
			r.failed++
		}
	}
	r.elapsed = time.Since(start)
	r.mallocs = mallocs() - m0
	return r
}

// replayFleet drives ops straight into the cluster the way the pipeline's
// collector would with a full queue: runs of consecutive admits go through
// PlaceBatch in chunks of the batch window, leaves through Remove.
func replayFleet(ops []ladderOp, c *fleet.Cluster, window int) rung {
	r := rung{servers: make([]int, len(ops))}
	sessions := make([]int, len(ops))
	var games []int
	var res []fleet.BatchResult
	before := c.Stats()
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < len(ops); {
		r.servers[i] = -1
		if ops[i].leave {
			t := time.Now()
			if !c.Remove(sessions[ops[i].ref]) {
				r.failed++
			}
			r.removeNS += time.Since(t)
			r.leaves++
			i++
			continue
		}
		games = games[:0]
		for j := i; j < len(ops) && !ops[j].leave && len(games) < window; j++ {
			games = append(games, ops[j].game)
		}
		t := time.Now()
		res = c.PlaceBatch(games, res[:0])
		r.placeNS += time.Since(t)
		for k, b := range res {
			sessions[i+k], r.servers[i+k] = b.Session, b.Server
			if !b.OK {
				r.failed++
			}
		}
		r.arrivals += len(games)
		i += len(games)
	}
	r.elapsed = time.Since(start)
	r.mallocs = mallocs() - m0
	after := c.Stats()
	r.stats = fleet.Stats{
		ScoreProbes: after.ScoreProbes - before.ScoreProbes,
		Scanned:     after.Scanned - before.Scanned,
		CacheMisses: after.CacheMisses - before.CacheMisses,
		Escapes:     after.Escapes - before.Escapes,
	}
	return r
}

// scoreRegrouped times the scorer alone over every state in batches,
// regrouped into calls of width states (0 = as the fleet grouped them).
func scoreRegrouped(s fleet.BatchScorer, batches [][][]int, width int) (usPerState float64) {
	calls := batches
	if width > 0 {
		var flat [][]int
		for _, b := range batches {
			flat = append(flat, b...)
		}
		calls = nil
		for i := 0; i < len(flat); i += width {
			calls = append(calls, flat[i:min(i+width, len(flat))])
		}
	}
	var dst []float64
	states := 0
	start := time.Now()
	for _, b := range calls {
		dst = s.ScoreStates(b, dst[:0])
		states += len(b)
	}
	if states == 0 {
		return 0
	}
	return us64(time.Since(start)) / float64(states)
}

// ladder runs every rung and returns the per-layer metrics it yields and
// any violated check.
func ladder(m *model, wl *workload, seed int64, n int) (map[string]float64, []string, error) {
	ops := ladderOps(wl, m, seed, n)
	prefill := wl.prefillGames(m, seed)
	var errs []string

	// fleet, twice: once bare for the timings, once under the capturing
	// decorator for core's inputs. The two must agree on every count and
	// every server — the ladder's determinism check.
	fleetRung := func(capt *timedScorer) (rung, error) {
		o := stackOpts{prefill: prefill}
		if capt != nil {
			o.scorer = capt
		}
		st, err := newStack(m, wl.fx, o)
		if err != nil {
			return rung{}, err
		}
		defer st.close()
		if capt != nil {
			capt.capture = true // from here on: the prefill's scoring is not the rung's
		}
		// The pipeline exists but idles; this goroutine is the cluster's
		// only caller, like the collector would be.
		return replayFleet(ops, st.cluster, wl.fx.window), nil
	}
	fl, err := fleetRung(nil)
	if err != nil {
		return nil, nil, err
	}
	capt := &timedScorer{inner: m.scorer}
	fl2, err := fleetRung(capt)
	if err != nil {
		return nil, nil, err
	}
	// Two replays of one sequence on two fresh fleets must agree on every
	// count and every server. At the commit that added this benchmark they
	// do not once a shard's score cache has overflowed (eviction follows
	// map iteration order and can drop a value the running probe still
	// needs), which churn_mixed_inproc's prefill alone achieves; that is a
	// property of the program, reported as fleet.replay_identical = 0, not
	// a reason to stop measuring it.
	identical := fl.stats == fl2.stats && slices.Equal(fl.servers, fl2.servers)
	if fl.failed > 0 {
		errs = append(errs, fmt.Sprintf("ladder: %d ops failed on the fleet rung", fl.failed))
	}
	batches := capt.batches

	nOps, arrivals := float64(len(ops)), float64(max(fl.arrivals, 1))
	out := map[string]float64{
		"fleet.place_us_per_arrival":     us64(fl.placeNS) / arrivals,
		"fleet.remove_us":                us64(fl.removeNS) / float64(max(fl.leaves, 1)),
		"fleet.allocs_per_arrival":       float64(fl.mallocs) / arrivals,
		"fleet.probes_per_arrival":       float64(fl.stats.ScoreProbes) / arrivals,
		"fleet.scanned_per_arrival":      float64(fl.stats.Scanned) / arrivals,
		"fleet.cache_misses_per_arrival": float64(fl.stats.CacheMisses) / arrivals,
		"fleet.escapes_per_arrival":      float64(fl.stats.Escapes) / arrivals,
		"fleet.replay_identical":         0,
	}
	if identical {
		out["fleet.replay_identical"] = 1
	}
	states := 0
	for _, b := range batches {
		states += len(b)
	}
	out["core.calls_per_arrival"] = float64(len(batches)) / arrivals
	out["core.states_per_arrival"] = float64(states) / arrivals
	out["core.states_per_call"] = float64(states) / float64(max(len(batches), 1))
	out["core.us_per_state"] = scoreRegrouped(m.scorer, batches, 0)
	out["core.us_per_state_w1"] = scoreRegrouped(m.scorer, batches, 1)
	out["core.us_per_state_w16"] = scoreRegrouped(m.scorer, batches, 16)
	out["core.self_us_per_arrival"] = out["core.us_per_state"] * float64(states) / arrivals
	fleetUS := us64(fl.elapsed) / nOps
	// Shards score in parallel, so core's sequential replay is an upper
	// bound on its share of the fleet rung's wall time.
	out["fleet.self_us"] = fleetUS - out["core.us_per_state"]*float64(states)/nOps

	// The three rungs above the fleet, each through one client.
	svc := map[string]float64{}
	for _, wire := range []string{"", "binary", "http"} {
		st, err := newStack(m, wl.fx, stackOpts{prefill: prefill, wire: wire})
		if err != nil {
			return nil, nil, err
		}
		cl, err := st.dial(wire)
		if err != nil {
			st.close()
			return nil, nil, err
		}
		r := replayClient(ops, cl)
		cl.Close()
		st.close()
		name := "pipeline"
		if wire != "" {
			name = "wire_" + wire
		}
		svc[name] = us64(r.elapsed) / nOps
		out[name+".svc_us"] = svc[name]
		out[name+".allocs_per_op"] = float64(r.mallocs) / nOps
		// Every layer above the fleet is transparent: batching, queueing
		// and the wire may not change a single placement. That can only
		// be held against a fleet that agrees with itself.
		if r.failed > 0 || identical && !slices.Equal(r.servers, fl.servers) {
			errs = append(errs, fmt.Sprintf("ladder: rung %s placed differently from the fleet rung (%d failed ops)", name, r.failed))
		}
	}
	out["pipeline.self_us"] = svc["pipeline"] - fleetUS
	out["wire_binary.self_us"] = svc["wire_binary"] - svc["pipeline"]
	out["wire_http.self_us"] = svc["wire_http"] - svc["pipeline"]
	return out, errs, nil
}

func us64(d time.Duration) float64 { return float64(d) / 1e3 }

// variants measures what two configuration changes do to closed-loop
// throughput: the fixture as it is, the same with two lanes, and the same
// without the observability plane, each on its own long-lived stack, run
// in rounds of short interleaved in-process bursts whose starting arm
// rotates. Each round gives one ratio per change and the medians are
// reported, so a drifting box cannot pick the winner.
func variants(m *model, base passConfig, rounds int, burst time.Duration) (lanes2Ratio, obsOverheadPct float64, err error) {
	const (
		plain = iota
		lanes2
		noObs
		arms
	)
	var runs [arms]*run
	for i := range runs {
		pc := base
		pc.inproc = true
		switch i {
		case lanes2:
			pc.lanes = 2
		case noObs:
			pc.noObs = true
		}
		if runs[i], err = newRun(m, pc); err != nil {
			return 0, 0, err
		}
		defer runs[i].close()
		runs[i].burst(phWarm, burst)
	}
	pps := func(r *run) float64 {
		before := r.admitted()
		wall := r.burst(phClosed, burst)
		return float64(r.admitted()-before) / wall.Seconds()
	}
	var lanes, obs []float64
	for round := 0; round < rounds; round++ {
		var got [arms]float64
		for j := 0; j < arms; j++ {
			arm := (round + j) % arms
			got[arm] = pps(runs[arm])
		}
		lanes = append(lanes, got[lanes2]/got[plain])
		obs = append(obs, (1-got[plain]/got[noObs])*100)
	}
	for _, r := range runs {
		if errs := r.check(); len(errs) > 0 {
			return 0, 0, fmt.Errorf("variant pass failed its output check: %s", errs[0])
		}
	}
	return median(lanes), median(obs), nil
}
