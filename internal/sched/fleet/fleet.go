// Package fleet is the sharded, fleet-scale dispatch plane. The flat
// greedy dispatcher (internal/sched) scans every server per arrival —
// fine at ~100 servers, a wall at 10k. Here cluster state is partitioned
// into shards, each owned by its own dispatcher goroutine with a private
// generation-keyed score cache, state-group index, and idle heap; a
// balancer routes each arrival to k sampled shards (power-of-k-choices),
// takes the best predicted-QoS placement among the candidates — every
// candidate is still scored through the interference predictor, never
// blind bin-packing — and falls back to a full-scan escape hatch when all
// k sampled shards reject. When a shard saturates, bounded steal batches
// rebalance sessions toward the emptiest shard, with seeded-deterministic
// victim selection.
//
// The balancer is the Caller (caller.go): the cluster owns one, which its
// Place/PlaceBatch/Remove methods delegate to, and hands out more for
// concurrent admission lanes. Driven by one goroutine, a given (Config,
// call sequence) replays byte-identically at any shard count, under the
// race detector, with metrics and tracing on. With ShardCount=1 the
// candidate set degenerates to a full scan and the placement sequence is
// bit-identical to sched.GreedyPolicy; with K >= ShardCount (full fan-out,
// stealing off) it is bit-identical across ANY shard count.
package fleet

import (
	"fmt"
	"sync"

	"gaugur/internal/obs"
	"gaugur/internal/obs/flight"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sim"
)

// Mode selects the per-shard placement rule.
type Mode int

const (
	// ModeGreedy scores candidate states through the predictor and takes
	// the best total-FPS delta (the interference-aware default).
	ModeGreedy Mode = iota
	// ModeLeastLoaded places on the emptiest sampled server via the idle
	// heaps — the interference-blind strawman, kept for comparison.
	ModeLeastLoaded
)

// BatchScorer scores whole candidate server states: the returned slice
// holds one predicted total FPS per state, written into dst when its
// capacity suffices and into a freshly grown slice otherwise — callers
// must use the RETURN value, never assume dst was filled in place (the
// append contract every batch API in this repo follows). Implementations
// must be safe for concurrent use — every shard goroutine calls the
// shared scorer during the fan-out. Values must be pure functions of the
// state (the caches and all determinism guarantees depend on it).
type BatchScorer interface {
	ScoreStates(states [][]int, dst []float64) []float64
}

// ScorerFunc adapts a single-state sched.Scorer (which must be pure and
// goroutine-safe) to BatchScorer.
type ScorerFunc func(games []int) float64

// ScoreStates implements BatchScorer.
func (f ScorerFunc) ScoreStates(states [][]int, dst []float64) []float64 {
	if cap(dst) < len(states) {
		dst = make([]float64, len(states))
	}
	dst = dst[:len(states)]
	for i, s := range states {
		dst[i] = f(s)
	}
	return dst
}

// Config parameterizes a Cluster.
type Config struct {
	// NumServers is the fleet size.
	NumServers int
	// ShardCount partitions the fleet; <= 0 defaults to 1, clamped to
	// NumServers.
	ShardCount int
	// MaxPerServer caps colocation size; <= 0 defaults to 4.
	MaxPerServer int
	// K is the number of shards sampled per arrival; <= 0 defaults to 2.
	// K >= ShardCount scans every shard (and consumes no randomness, so
	// results are shard-count invariant).
	K int
	// Seed drives shard sampling and steal victim selection.
	Seed int64
	// Scorer predicts the total FPS of a hypothetical server state;
	// required in ModeGreedy.
	Scorer BatchScorer
	// Mode selects greedy (default) or least-loaded placement.
	Mode Mode
	// Gen, when non-nil, reports the serving model's generation; every
	// score-cache key is tagged with it so a hot swap invalidates all
	// shards' memos at once (see sched.GreedyPolicyVersioned).
	Gen func() uint64
	// CacheCap bounds each shard's score cache; <= 0 uses the default.
	CacheCap int

	// StealThreshold is the utilization at which a shard becomes a steal
	// donor; <= 0 disables work stealing entirely.
	StealThreshold float64
	// StealGap is the minimum donor-target utilization gap for a steal
	// plan to start (and to keep running); <= 0 defaults to 0.2.
	StealGap float64
	// StealBatch bounds the sessions per steal plan; <= 0 defaults to 8.
	StealBatch int

	// Metrics and Tracer mirror the sched.OnlineConfig contract: nil-safe
	// and never feeding back into placement decisions.
	Metrics *obs.Registry
	Tracer  *trace.Tracer
	// Flight, when non-nil, receives the dispatch plane's flight-recorder
	// events (escapes, steal plans/moves/aborts, generation swaps). The
	// balancer records via TryRecord only — under ring-lock contention an
	// event is counted dropped rather than stalling every queued arrival.
	Flight *flight.Recorder
}

// Placement describes one admitted session.
type Placement struct {
	Session int
	Server  int // global server id
	Shard   int
	Delta   float64 // predicted total-FPS delta of the chosen placement
	// Seq is the cluster's monotone commit ticket: every admitted session
	// gets the next value in a single total order. The commit lock IS the
	// sequencer — two lanes admitting onto the same server resolve in ticket
	// order.
	Seq uint64
}

// BatchResult is one arrival's outcome in a coalesced placement batch.
type BatchResult struct {
	Placement
	OK bool // false: no shard in the whole fleet had capacity
}

// BatchTiming is one arrival's placement-decision breadcrumbs, stamped on
// the balancer goroutine for callers that materialize trace spans after the
// fact (the admission pipeline's deferred tracing: three clock reads here
// instead of span bookkeeping on the single-threaded hot loop). Timestamps
// come from the tracer clock (Tracer.Now; all zero with no tracer) and
// exclude steal-plan drainage.
type BatchTiming struct {
	// StartNS/EndNS bracket the decision; CommitNS is the instant the
	// winning placement was chosen (probe reduced, commit about to book).
	// CommitNS stays zero when the arrival was rejected.
	StartNS, CommitNS, EndNS int64
	// Cands is the number of shards probed (the whole fleet after an
	// escape); Probes counts the fresh score probes the decision consumed —
	// batched arrivals answered entirely from precomputed scores report 0.
	Cands, Probes int
	// Escape reports that the full-fleet fallback fired.
	Escape bool
}

// Stats are the cluster's lifetime counters, all written under the commit
// lock. The probe-side ones (Scanned, CacheMisses, ScoreProbes, Escapes) are
// folded in once per batch, so a read taken mid-batch lags by that batch.
type Stats struct {
	Placed, Rejected, Removed         int
	Escapes                           int
	StealPlans, StolenSessions        int
	StealAborts                       int
	Active, PeakActive                int
	Scanned, CacheMisses, ScoreProbes int
	// CommitConflicts counts commits that lost the capacity race: another
	// caller filled the chosen server between probe and commit.
	// LockedProbes counts full-fleet probes repeated under the commit lock
	// because an optimistic one could not be validated. Both stay zero
	// while a single caller drives the cluster.
	CommitConflicts, LockedProbes int
}

type sessionLoc struct {
	shard, server, game int
}

// stealPlan is a pending bounded steal batch: moves drain one per
// subsequent Place/Remove call, so a batch never blows up one decision's
// latency and arrivals genuinely interleave with it.
type stealPlan struct {
	from, to int
	moves    []victim
}

// Cluster is the sharded dispatch plane. Its Place, PlaceBatch,
// PlaceBatchTimed and Remove drive one built-in Caller and so take one
// goroutine at a time; every other method is safe under any number of
// concurrent Callers.
type Cluster struct {
	cfg     Config
	nShards int
	max     int
	k       int
	shards  []*shard
	ranges  [][2]int
	all     []int // 0..nShards-1, the full-fan-out candidate list

	// mu is the commit lock: it guards every field below and every
	// mutating send to a shard. occ mirrors per-server occupancy
	// balancer-side so a commit can revalidate capacity without a shard
	// round trip; commitSeq is the monotone ticket every commit draws.
	mu        sync.Mutex
	sessions  map[int]sessionLoc
	nextSID   int
	loads     []int // sessions per shard
	caps      []int // slot capacity per shard
	occ       []int
	commitSeq uint64
	nCallers  int
	stealSeq  int64
	plan      *stealPlan
	stats     Stats

	// lastGenTag/genSeen detect model hot swaps for the flight recorder:
	// the first decision after Gen() changes records a "gen-swap" event.
	lastGenTag uint64
	genSeen    bool

	self *Caller // what the Cluster's own placement methods drive

	stealGap   float64
	stealBatch int

	met    fleetMetrics
	tr     *trace.Tracer
	flight *flight.Recorder

	wg     sync.WaitGroup
	closed bool
}

// New builds the cluster and starts one dispatcher goroutine per shard.
// Callers must Close it.
func New(cfg Config) (*Cluster, error) {
	if cfg.NumServers <= 0 {
		return nil, fmt.Errorf("fleet: needs at least one server")
	}
	if cfg.Mode == ModeGreedy && cfg.Scorer == nil {
		return nil, fmt.Errorf("fleet: ModeGreedy needs a Scorer")
	}
	max := cfg.MaxPerServer
	if max <= 0 {
		max = 4
	}
	shardCount := cfg.ShardCount
	if shardCount <= 0 {
		shardCount = 1
	}
	if shardCount > cfg.NumServers {
		shardCount = cfg.NumServers
	}
	k := cfg.K
	if k <= 0 {
		k = 2
	}
	if k > shardCount {
		k = shardCount
	}
	gap := cfg.StealGap
	if gap <= 0 {
		gap = 0.2
	}
	batch := cfg.StealBatch
	if batch <= 0 {
		batch = 8
	}

	ranges := sim.Partition(cfg.NumServers, shardCount)
	c := &Cluster{
		cfg:        cfg,
		nShards:    shardCount,
		max:        max,
		k:          k,
		ranges:     ranges,
		sessions:   map[int]sessionLoc{},
		loads:      make([]int, shardCount),
		caps:       make([]int, shardCount),
		occ:        make([]int, cfg.NumServers),
		stealGap:   gap,
		stealBatch: batch,
		met:        newFleetMetrics(cfg.Metrics, shardCount),
		tr:         cfg.Tracer,
		flight:     cfg.Flight,
	}
	c.all = make([]int, shardCount)
	c.shards = make([]*shard, shardCount)
	for i, r := range ranges {
		c.all[i] = i
		c.caps[i] = (r[1] - r[0]) * max
		c.shards[i] = newShard(i, r[0], r[1], max, cfg.Mode, cfg.Scorer, cfg.CacheCap)
		c.wg.Add(1)
		go func(sh *shard) {
			defer c.wg.Done()
			sh.run()
		}(c.shards[i])
	}
	c.self = c.newCaller(sim.DeriveSeed(cfg.Seed, "fleet-sample", 0))
	return c, nil
}

// Caller returns the cluster's built-in caller — the one Place, PlaceBatch,
// PlaceBatchTimed and Remove drive, so a component holding it places
// exactly as direct calls on the Cluster would.
func (c *Cluster) Caller() *Caller { return c.self }

// NewCaller registers an additional caller for a concurrent admission lane,
// with its own sampling stream. Callers are never unregistered; build them
// once per lane at startup.
func (c *Cluster) NewCaller() *Caller {
	c.mu.Lock()
	id := c.nCallers
	c.nCallers++
	c.mu.Unlock()
	return c.newCaller(sim.DeriveSeed(c.cfg.Seed, "fleet-caller", int64(id)))
}

// Place admits one arriving session through the built-in caller.
func (c *Cluster) Place(game int) (Placement, bool) { return c.self.Place(game) }

// PlaceBatch admits a coalesced batch through the built-in caller.
func (c *Cluster) PlaceBatch(games []int, dst []BatchResult) []BatchResult {
	return c.self.PlaceBatchTimed(games, dst, nil)
}

// PlaceBatchTimed is PlaceBatch with per-arrival timing breadcrumbs; see
// Caller.PlaceBatchTimed.
func (c *Cluster) PlaceBatchTimed(games []int, dst []BatchResult, times []BatchTiming) []BatchResult {
	return c.self.PlaceBatchTimed(games, dst, times)
}

// Remove departs a session through the built-in caller; false when the id
// is unknown.
func (c *Cluster) Remove(sid int) bool { return c.self.Remove(sid) }

// Close stops every shard goroutine. The cluster is unusable afterwards.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, sh := range c.shards {
		close(sh.reqs)
	}
	c.wg.Wait()
}

// Stats returns the lifetime counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Active reports the number of placed sessions.
func (c *Cluster) Active() int { return c.Stats().Active }

// Utilization reports a shard's occupied-slot fraction.
func (c *Cluster) Utilization(shard int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.util(shard)
}

func (c *Cluster) util(shard int) float64 {
	return float64(c.loads[shard]) / float64(c.caps[shard])
}

// Locate reports where a session currently runs (work stealing may have
// moved it since placement).
func (c *Cluster) Locate(sid int) (server int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	loc, ok := c.sessions[sid]
	return loc.server, ok
}

// mutations counts every change to what is placed where — commits,
// removals and steal moves — so two equal readings under the lock prove no
// shard's contents moved in between.
func (c *Cluster) mutations() uint64 {
	return c.commitSeq + uint64(c.stats.Removed) + uint64(c.stats.StolenSessions)
}

// genTag folds the model generation into score-cache keys, read once per
// decision (same contract as sched.GreedyPolicyVersioned). A tag change —
// the serving model was hot-swapped since the last decision — lands a
// "gen-swap" event in the flight recorder, so a dump shows placement events
// on either side of the swap boundary. The caller holds c.mu.
func (c *Cluster) genTag() uint64 {
	var tag uint64
	if c.cfg.Gen != nil {
		if g := c.cfg.Gen(); g != 0 {
			tag = sim.Mix64(g)
		}
	}
	if c.genSeen && tag != c.lastGenTag {
		c.flight.TryRecord(flight.Event{Kind: "gen-swap"})
	}
	c.genSeen, c.lastGenTag = true, tag
	return tag
}

// maybePlanSteal starts a bounded steal batch when the just-committed
// shard crossed the saturation threshold and a meaningfully emptier shard
// exists. Victims are nominated immediately (seeded-deterministically, by
// the donor) and drained one move per subsequent decision. The caller
// holds c.mu; the round trip rides the donor's default reply channel.
func (c *Cluster) maybePlanSteal(donor int) {
	if c.cfg.StealThreshold <= 0 || c.plan != nil || c.nShards < 2 {
		return
	}
	du := c.util(donor)
	if du < c.cfg.StealThreshold {
		return
	}
	target := -1
	for i := 0; i < c.nShards; i++ {
		if i == donor {
			continue
		}
		if target < 0 || c.loads[i]*c.caps[target] < c.loads[target]*c.caps[i] {
			target = i
		}
	}
	if target < 0 || du-c.util(target) < c.stealGap {
		return
	}
	n := (c.loads[donor] - c.loads[target]) / 2
	if n > c.stealBatch {
		n = c.stealBatch
	}
	free := c.caps[target] - c.loads[target]
	if n > free {
		n = free
	}
	if n <= 0 {
		return
	}
	seed := sim.DeriveSeed(c.cfg.Seed, "fleet-steal", c.stealSeq)
	c.stealSeq++
	sh := c.shards[donor]
	sh.reqs <- shardReq{op: opVictims, n: n, seed: seed}
	r := <-sh.resp
	if len(r.victims) == 0 {
		return
	}
	c.plan = &stealPlan{from: donor, to: target, moves: r.victims}
	c.stats.StealPlans++
	c.met.stealPlans.Inc()
	c.flight.TryRecord(flight.Event{Kind: "steal-plan", Shard: donor,
		Detail: fmt.Sprintf("target=%d moves=%d", target, len(r.victims))})
}

// applySteal drains at most one move of the pending steal plan. Each move
// re-validates against live state — the session may have departed or the
// balance may have shifted since the plan was cut — and the plan is
// dropped (never half-applied onto a full shard) the moment it stops
// making sense. A session is committed on the target before it is removed
// from the donor, so no interleaving can orphan it. The caller holds c.mu
// on behalf of cl, whose batched answers for the two shards go stale.
func (c *Cluster) applySteal(cl *Caller) {
	if c.plan == nil {
		return
	}
	p := c.plan
	for len(p.moves) > 0 {
		m := p.moves[0]
		p.moves = p.moves[1:]
		loc, ok := c.sessions[m.sid]
		if !ok || loc.shard != p.from || loc.server != m.server {
			// Departed or already moved since nomination; skip silently.
			continue
		}
		if c.util(p.from)-c.util(p.to) < c.stealGap {
			// Balance reached (arrivals landed elsewhere, departures
			// drained the donor); the rest of the batch is moot.
			c.plan = nil
			c.stats.StealAborts++
			c.met.stealAborts.Inc()
			c.flight.TryRecord(flight.Event{Kind: "steal-abort", Shard: p.from, Detail: "balance-reached"})
			return
		}
		genTag := c.genTag()
		tctx := c.tr.StartTrace("steal-move",
			trace.Int("session", m.sid),
			trace.Int("from_shard", p.from),
			trace.Int("to_shard", p.to),
		)
		target := c.shards[p.to]
		target.reqs <- shardReq{op: opScore, game: m.game, genTag: genTag}
		r := <-target.resp
		if !r.ok {
			// Target filled up mid-batch: abort the plan, leave the
			// session untouched on the donor.
			c.plan = nil
			c.stats.StealAborts++
			c.met.stealAborts.Inc()
			c.flight.TryRecord(flight.Event{Kind: "steal-abort", Shard: p.to, Detail: "target-full"})
			tctx.End(trace.String("outcome", "aborted"))
			return
		}
		// Commit on the target FIRST, then remove from the donor: the
		// session exists somewhere at every step. The commit needs no
		// ack — the donor remove below is the move's synchronization.
		target.reqs <- shardReq{op: opCommit, game: m.game, sid: m.sid, server: r.server}
		donor := c.shards[p.from]
		donor.reqs <- shardReq{op: opRemove, sid: m.sid, server: m.server}
		<-donor.resp
		loc.shard, loc.server = p.to, r.server
		c.sessions[m.sid] = loc
		cl.dirty[p.from], cl.dirty[p.to] = true, true
		c.loads[p.from]--
		c.loads[p.to]++
		c.occ[m.server]--
		c.occ[r.server]++
		c.stats.StolenSessions++
		c.met.stolen.Inc()
		c.met.shardSessions[p.from].Set(float64(c.loads[p.from]))
		c.met.shardSessions[p.to].Set(float64(c.loads[p.to]))
		c.flight.TryRecord(flight.Event{Kind: "steal-move",
			Session: m.sid, Server: r.server, Shard: p.to, Game: m.game})
		tctx.End(trace.String("outcome", "moved"), trace.Int("server", r.server))
		if len(p.moves) == 0 {
			c.plan = nil
		}
		return // one move per decision: bounded latency
	}
	c.plan = nil
}

// StealPending reports whether a steal batch is still draining.
func (c *Cluster) StealPending() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plan != nil
}

// Snapshot assembles the global server contents (sorted multisets; nil
// for idle servers), for verification and tests. It holds the commit lock,
// so the contents are those of one instant even with callers running.
func (c *Cluster) Snapshot() [][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]int, 0, c.cfg.NumServers)
	for _, sh := range c.shards {
		sh.reqs <- shardReq{op: opSnapshot}
		r := <-sh.resp
		out = append(out, r.snap...)
	}
	return out
}
