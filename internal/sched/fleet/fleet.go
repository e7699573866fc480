// Package fleet is the sharded, fleet-scale dispatch plane. The flat
// greedy dispatcher (internal/sched) scans every server per arrival —
// fine at ~100 servers, a wall at 10k. Here cluster state is partitioned
// into shards, each owned by its own dispatcher goroutine with a private
// generation-keyed score memo, state-group index, and idle heap; a
// balancer routes each arrival to k sampled shards (power-of-k-choices),
// takes the best predicted-QoS placement among the candidates — every
// candidate is still scored through the interference predictor, never
// blind bin-packing — and falls back to a full-scan escape hatch when all
// k sampled shards reject. A placed session changes server only through
// Migrate or a crash (FailServer).
//
// The balancer is the Caller (caller.go): the cluster owns one, which its
// Place/PlaceBatch/Remove methods delegate to, and hands out more for
// concurrent admission lanes. Driven by one goroutine, a given (Config,
// call sequence) replays byte-identically at any shard count, under the
// race detector, with metrics and tracing on. With ShardCount=1 the
// candidate set degenerates to a full scan and the placement sequence is
// bit-identical to a flat scan of every server (the test oracle); with
// K >= ShardCount (full fan-out) it is bit-identical across ANY shard count.
//
// The cluster is also the one world the churn simulator (sched.RunOnline)
// drives, and the only holder of what runs where: FailServer and
// RestoreServer take a crashed server out of the placement index and bring it
// back, Migrate moves a session to the best server other than its own, and
// Server reads one server's sessions back — each sequenced under the commit
// lock.
package fleet

import (
	"fmt"
	"slices"
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
// shared scorer during the fan-out. Values should be pure functions of the
// state: the cross-shard-count and batched-vs-sequential guarantees depend
// on it, and a score is memoized per state for as long as the memo keeps it.
//
// An impure scorer (the fallback chain, whose breaker cooldown counts
// queries) still replays byte-identically under one caller, because what it
// may rely on is fixed: one call per probe, made only for that probe's
// uncached states, each state at most once, on a shard goroutine while the
// caller waits — so calls never overlap within a shard and their sequence
// is a function of the call sequence. What it may NOT rely on is the order
// of states within a call (shards gather them in Go map order; sort inside
// the scorer, as ScorerFunc does) or being asked again for a state it has
// already scored.
type BatchScorer interface {
	ScoreStates(states [][]int, dst []float64) []float64
}

// ScorerFunc adapts a goroutine-safe single-state scorer to BatchScorer. It
// scores each call's states in lexicographic order, whatever order they were
// handed over in, so a stateful f sees a reproducible query sequence.
type ScorerFunc func(games []int) float64

// ScoreStates implements BatchScorer.
func (f ScorerFunc) ScoreStates(states [][]int, dst []float64) []float64 {
	if cap(dst) < len(states) {
		dst = make([]float64, len(states))
	}
	dst = dst[:len(states)]
	if len(states) == 1 {
		dst[0] = f(states[0])
		return dst
	}
	order := make([]int, len(states))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(states[a], states[b]) })
	for _, i := range order {
		dst[i] = f(states[i])
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
	// Seed drives shard sampling.
	Seed int64
	// Scorer predicts the total FPS of a hypothetical server state;
	// required in ModeGreedy.
	Scorer BatchScorer
	// Mode selects greedy (default) or least-loaded placement.
	Mode Mode
	// Gen, when non-nil, reports the serving model's generation; every
	// score-memo key is tagged with it so a hot swap invalidates all
	// shards' memos at once.
	Gen func() uint64
	// CacheCap bounds the scores each shard's memo holds; <= 0 uses the
	// default, 2^15. The memo keeps one row per state: the state's own
	// score plus one slot for each game the shard has been asked about, so
	// over a 100-game catalog the default holds 324 states (~260 KB), and
	// a cap too small for one full row memoizes states' own scores only.
	CacheCap int

	// Metrics and Tracer are nil-safe and never feed back into placement
	// decisions. The cluster writes no spans — its shard goroutines own no
	// trace: the tracer only lends its clock to the decisions' stamps
	// (BatchResult.Timing), which are read from the registry's clock
	// without a tracer and not at all without either. Whoever owns a
	// decision's trace records its spans from the stamps
	// (BatchResult.Trace).
	Metrics *obs.Registry
	Tracer  *trace.Tracer
	// Flight, when non-nil, receives the dispatch plane's flight-recorder
	// events (escapes, server failures, generation swaps). The
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
	OK     bool        // false: no shard in the whole fleet had capacity
	Timing BatchTiming // the decision's clock stamps and probe counts
}

// BatchTiming is one arrival's placement-decision stamps: raw clock reads
// taken on the balancer goroutine, from which the decision histograms are
// fed at once and spans are built after the fact, off the hot loop
// (BatchResult.Trace). Timestamps come from the cluster's one clock — the
// tracer's, else the registry's — and are all zero with neither.
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
	Active, PeakActive                int
	Scanned, CacheMisses, ScoreProbes int
	// CommitConflicts counts commits that lost the capacity race: another
	// caller filled the chosen server between probe and commit.
	// LockedProbes counts full-fleet probes repeated under the commit lock
	// because an optimistic one could not be validated. Both stay zero
	// while a single caller drives the cluster.
	CommitConflicts, LockedProbes int
	// Migrated counts sessions Migrate moved. Sessions FailServer evicted
	// have left the cluster and count as Removed.
	Migrated int
}

type sessionLoc struct {
	shard, server, game int
}

// Cluster is the sharded dispatch plane. Its Place, PlaceBatch and Remove
// drive one built-in Caller and so take one
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
	caps      []int // slot capacity per shard, down servers excluded
	occ       []int // parked at max while a server is down: no commit can land
	down      []bool
	masks     uint64 // Migrate probes that hid a server, see mutations
	commitSeq uint64
	nCallers  int
	stats     Stats

	// lastGenTag/genSeen detect model hot swaps for the flight recorder:
	// the first decision after Gen() changes records a "gen-swap" event.
	lastGenTag uint64
	genSeen    bool

	self *Caller // what the Cluster's own placement methods drive

	met    fleetMetrics
	now    obs.Clock // the decisions' stamps: tracer's, else registry's, else 0
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

	ranges := sim.Partition(cfg.NumServers, shardCount)
	c := &Cluster{
		cfg:      cfg,
		nShards:  shardCount,
		max:      max,
		k:        k,
		ranges:   ranges,
		sessions: map[int]sessionLoc{},
		loads:    make([]int, shardCount),
		caps:     make([]int, shardCount),
		occ:      make([]int, cfg.NumServers),
		down:     make([]bool, cfg.NumServers),
		met:      newFleetMetrics(cfg.Metrics, shardCount),
		now:      cfg.Tracer.ClockOr(cfg.Metrics),
		flight:   cfg.Flight,
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

// Caller returns the cluster's built-in caller — the one Place, PlaceBatch
// and Remove drive, so a component holding it places
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
	return c.self.PlaceBatch(games, dst)
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

// Locate reports where a session currently runs (Migrate may have moved it
// since placement).
func (c *Cluster) Locate(sid int) (server int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	loc, ok := c.sessions[sid]
	return loc.server, ok
}

// mutations counts every change to what a probe can see — commits, removals
// (evictions included), migrations and Migrate's masking — so two equal
// readings under the lock prove no shard's index moved in between. A
// restored server only adds room, which a reject taken before it may miss.
func (c *Cluster) mutations() uint64 {
	return c.commitSeq + c.masks + uint64(c.stats.Removed) + uint64(c.stats.Migrated)
}

// genTag folds the model generation into score-memo keys, read once per
// decision: a swap mid-decision at worst re-scores one placement. A key is
// a state's multiset hash plus the tag, and the multiset hash is a sum of
// Mix64(game), so a tag of Mix64(gen) would make state S at generation a
// the key of S-{b}+{a} at generation b: mixing twice keeps the tag out of
// the game-id domain. A tag change —
// the serving model was hot-swapped since the last decision — lands a
// "gen-swap" event in the flight recorder, so a dump shows placement events
// on either side of the swap boundary. The caller holds c.mu.
func (c *Cluster) genTag() uint64 {
	var tag uint64
	if c.cfg.Gen != nil {
		if g := c.cfg.Gen(); g != 0 {
			tag = sim.Mix64(sim.Mix64(g))
		}
	}
	if c.genSeen && tag != c.lastGenTag {
		c.flight.TryRecord(flight.Event{Kind: "gen-swap"})
	}
	c.genSeen, c.lastGenTag = true, tag
	return tag
}

// moveLocked relocates placed session sid from loc to (shard, server). It is
// committed on the target FIRST and only then removed from the source, so
// the session exists somewhere at every step; the commit needs no ack — the
// source's remove reply is the move's synchronization. The caller holds
// c.mu and has a free slot on the target.
func (c *Cluster) moveLocked(sid int, loc sessionLoc, shard, server int) {
	c.shards[shard].reqs <- shardReq{op: opCommit, game: loc.game, sid: sid, server: server}
	src := c.shards[loc.shard]
	src.reqs <- shardReq{op: opRemove, sid: sid, server: loc.server}
	<-src.resp
	c.sessions[sid] = sessionLoc{shard: shard, server: server, game: loc.game}
	c.loads[loc.shard]--
	c.loads[shard]++
	c.occ[loc.server]--
	c.occ[server]++
	c.met.shardSessions[loc.shard].Set(float64(c.loads[loc.shard]))
	c.met.shardSessions[shard].Set(float64(c.loads[shard]))
}

// Resident is one session on a server: what Server reads and what FailServer
// takes off a crashed one.
type Resident struct {
	Session, Game int
}

// FailServer crashes a server: every session on it is evicted and returned
// (in slot order, for the caller to re-place) and the server leaves its
// state group and the idle heap, so no probe answers with it until
// RestoreServer. Its ledger entry parks at the cap, which fails the commit
// of any probe answer that went stale across the crash. Failing a server
// that is already down (an overlapping crash window) is a no-op.
func (c *Cluster) FailServer(server int) []Resident {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down[server] {
		return nil
	}
	si := c.shardOf(server)
	sh := c.shards[si]
	sh.reqs <- shardReq{op: opFail, server: server}
	r := <-sh.resp
	c.down[server] = true
	c.occ[server] = c.max
	c.caps[si] -= c.max
	out := r.residents
	c.loads[si] -= len(out)
	c.stats.Removed += len(out)
	c.stats.Active -= len(out)
	for _, e := range out {
		delete(c.sessions, e.Session)
	}
	c.met.active.Set(float64(c.stats.Active))
	c.met.shardSessions[si].Set(float64(c.loads[si]))
	c.flight.TryRecord(flight.Event{Kind: "server-fail", Server: server, Shard: si,
		Detail: fmt.Sprintf("evicted=%d", len(out))})
	return out
}

// RestoreServer brings a failed server back, empty. A no-op on a server
// that is not down.
func (c *Cluster) RestoreServer(server int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.down[server] {
		return
	}
	si := c.shardOf(server)
	c.shards[si].reqs <- shardReq{op: opUnmask, server: server}
	c.down[server] = false
	c.occ[server] = 0
	c.caps[si] += c.max
	c.flight.TryRecord(flight.Event{Kind: "server-restore", Server: server, Shard: si})
}

// shardOf maps a global server id to the shard owning it.
func (c *Cluster) shardOf(server int) int {
	for i, r := range c.ranges {
		if server < r[1] {
			return i
		}
	}
	return -1
}

// Migrate moves a session through the built-in caller; see Caller.Migrate.
func (c *Cluster) Migrate(sid int) (server int, ok bool) { return c.self.Migrate(sid) }

// NumServers reports the fleet size, down servers included.
func (c *Cluster) NumServers() int { return c.cfg.NumServers }

// Capacity reports the fleet's session slots, down servers excluded.
func (c *Cluster) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.caps {
		total += n
	}
	return total
}

// Server reads the sessions on one server in slot order — by game, the
// latest to join first among equals — which is the order FailServer evicts in
// and Snapshot lists games in. Like Snapshot it is answered by the owning
// shard under the commit lock, so it never shows a migration half done. An
// idle or down server reads empty.
func (c *Cluster) Server(server int) []Resident {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := c.shards[c.shardOf(server)]
	sh.reqs <- shardReq{op: opServer, server: server}
	return (<-sh.resp).residents
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
