package fleet

import (
	"math/rand"

	"gaugur/internal/obs"
	"gaugur/internal/obs/flight"
)

// Caller is the balancer: the one implementation that samples candidate
// shards, probes them, commits the winner and removes sessions. Every
// Cluster owns a built-in Caller that Cluster.Place, PlaceBatch and Remove
// delegate to; NewCaller hands out more, one per
// admission lane, so N lanes can drive the same fleet from N cores:
//
//   - Scoring runs lock-free and in parallel: each Caller owns private
//     per-shard reply channels, so its probes interleave with other lanes'
//     on the shard request queues without mixing up answers, and each batch
//     scores all its arrivals' candidates in one kernel pass per shard.
//   - Commits are sequenced: every balancer-side mutation (session booking,
//     per-server occupancy, removal, stats) holds the cluster commit lock
//     and draws a monotone ticket (Placement.Seq), so two lanes admitting
//     onto the same server resolve in a defined total order and an Admit
//     observed by a client strictly precedes any Leave for the session it
//     returned.
//   - Capacity is revalidated at commit time against the balancer-side
//     occupancy ledger: a probe answer that went stale while another lane
//     filled the chosen server fails the commit and the lane re-probes
//     fresh. A reject is validated the same way — it stands only if no
//     other caller mutated the fleet while the full-fleet probe ran. Either
//     check failing repeatedly ends in a probe under the lock, where shard
//     state is provably consistent (all mutating sends hold the lock and
//     shard queues are FIFO), so the decision is exact at its
//     linearization point.
//
// One Caller driven by one goroutine never loses a race, so its placements
// are a pure function of (Config, call sequence): they replay
// byte-identically at any shard count, under the race detector, with
// metrics and tracing on, and PlaceBatch(games) equals Place(g) per game.
// Several Callers relax that to linearizability: two runs may interleave
// lanes differently, and a lane may commit against a score another lane has
// since perturbed — the same approximation power-of-k sampling already
// accepts. What every interleaving keeps: no double-placement, no orphaned
// session, conserved occupancy, and admit/reject decided exactly (an
// arrival is rejected only if the whole fleet was full at its
// linearization point, which is why admitted/rejected counts are invariant
// across lane counts for a quiesced replay).
//
// A Caller is NOT safe for concurrent use itself — one goroutine per
// Caller, many Callers per Cluster.
type Caller struct {
	c *Cluster

	// resp holds this caller's private per-shard reply channels. The
	// protocol invariant that keeps the whole plane deadlock-free: at most
	// one outstanding reply per (caller, shard) at any time, so a buffered
	// channel of capacity 1 means a shard never blocks handing a reply
	// back.
	resp []chan shardResp

	rng     *rand.Rand
	sampled []int
	candBuf []int

	// Per-batch probe scratch. games[s] lists the games shard s was asked
	// to score for this batch and resps[s] its answers, installed lazily by
	// collect while pending[s] says the reply is still in flight; resps[s]
	// is also the reply buffer the next batch's request hands shard s to
	// write into, so a warm batch allocates no answers. dirty[s]
	// marks answers THIS caller has invalidated (its own commits) — other
	// lanes' commits leave them stale too, which the commit-time occupancy
	// check makes safe.
	games   [][]int
	resps   [][]shardResp
	dirty   []bool
	pending []bool

	// Counters accumulated off-lock and folded into the shared Stats under
	// the commit lock once per batch.
	probes, scanned, misses, escapes int
}

// callerRetries bounds the optimistic probe→commit attempts on the sampled
// shards before a placement widens to the whole fleet. Two is enough: a
// second conflict on the same arrival means real contention.
const callerRetries = 2

func (c *Cluster) newCaller(seed int64) *Caller {
	cl := &Caller{
		c:       c,
		resp:    make([]chan shardResp, c.nShards),
		rng:     rand.New(rand.NewSource(seed)),
		games:   make([][]int, c.nShards),
		resps:   make([][]shardResp, c.nShards),
		dirty:   make([]bool, c.nShards),
		pending: make([]bool, c.nShards),
	}
	for i := range cl.resp {
		cl.resp[i] = make(chan shardResp, 1)
	}
	return cl
}

// sampleShards picks the candidate shards for one arrival: k distinct
// shards, or the fixed full list when k covers every shard — no randomness
// is consumed then, the property the cross-shard-count invariance tests
// rely on.
func (cl *Caller) sampleShards() []int {
	c := cl.c
	if c.k >= c.nShards {
		return c.all
	}
	s := cl.sampled[:0]
	for len(s) < c.k {
		d := cl.rng.Intn(c.nShards)
		dup := false
		for _, have := range s {
			if have == d {
				dup = true
				break
			}
		}
		if !dup {
			s = append(s, d)
		}
	}
	cl.sampled = s
	return s
}

// collect installs the batched answers the batch's opScoreBatch left on
// shard s's private reply channel. The shard scored them in parallel with
// the drain, so by the time s comes up as a candidate this is usually a
// channel read, not a scoring round trip. No-op when nothing is pending.
func (cl *Caller) collect(s int) {
	if !cl.pending[s] {
		return
	}
	r := <-cl.resp[s]
	cl.pending[s] = false
	cl.resps[s] = r.batch
	for _, e := range r.batch {
		cl.probes++
		cl.scanned += e.scanned
		cl.misses += e.misses
	}
}

// flushStats folds the caller's off-lock counters into the shared ledger.
func (cl *Caller) flushStats() {
	c := cl.c
	c.mu.Lock()
	c.stats.ScoreProbes += cl.probes
	c.stats.Scanned += cl.scanned
	c.stats.CacheMisses += cl.misses
	c.stats.Escapes += cl.escapes
	c.mu.Unlock()
	cl.probes, cl.scanned, cl.misses, cl.escapes = 0, 0, 0, 0
}

// Place admits one arriving session: a batch of one. ok=false means no
// shard in the whole fleet had capacity.
func (cl *Caller) Place(game int) (Placement, bool) {
	var dst [1]BatchResult
	cl.PlaceBatch([]int{game}, dst[:0])
	return dst[0].Placement, dst[0].OK
}

// PlaceBatch admits a coalesced batch of arrivals: dst[i] receives the
// outcome for games[i]. One batched probe per involved shard scores every
// (shard, game) pair of the batch in a single BatchScorer call — this is
// where the compiled forest kernel runs at full 16-wide occupancy instead
// of one underfilled pass per arrival — and the batch then drains in
// arrival order, re-probing only shards this caller's earlier commits
// dirtied. A clean answer is exactly what a fresh probe would return as
// far as this caller's own mutations go, which is why batched and
// one-at-a-time submission place identically; only the probe-side
// counters differ. The model generation is pinned once per batch, so a
// lifecycle hot swap takes effect at the next batch boundary.
//
// dst[i].Timing carries the clock stamps and probe counts of games[i]'s
// decision; the balancer writes no spans of its own, and a caller that owns
// the decision's trace hangs them from the stamps (BatchResult.Trace).
// Timing observes the decision, it never participates in it.
func (cl *Caller) PlaceBatch(games []int, dst []BatchResult) []BatchResult {
	if cap(dst) < len(games) {
		dst = make([]BatchResult, len(games))
	}
	dst = dst[:len(games)]
	if len(games) == 0 {
		return dst
	}
	c := cl.c

	c.mu.Lock()
	genTag := c.genTag()
	c.mu.Unlock()
	c.met.batches.Inc()
	c.met.batchArrivals.Observe(float64(len(games)))

	// Presample every arrival's candidate shards in arrival order —
	// exactly the rng draws one-at-a-time calls would consume.
	kk := c.k
	need := len(games) * kk
	if cap(cl.candBuf) < need {
		cl.candBuf = make([]int, need)
	}
	cand := cl.candBuf[:need]
	for i := range games {
		copy(cand[i*kk:(i+1)*kk], cl.sampleShards())
	}

	// Group the batch by shard (deduping games per shard) and fan one
	// batched probe out per involved shard. The replies are NOT collected
	// here: the drain starts immediately instead of barriering on the
	// slowest shard.
	for s := range cl.games {
		cl.games[s] = cl.games[s][:0]
		cl.dirty[s] = false
	}
	for i, g := range games {
		for _, s := range cand[i*kk : (i+1)*kk] {
			if lookupIdx(cl.games[s], g) < 0 {
				cl.games[s] = append(cl.games[s], g)
			}
		}
	}
	fanNS := c.now()
	for s, gs := range cl.games {
		if len(gs) > 0 {
			c.shards[s].reqs <- shardReq{op: opScoreBatch, games: gs, genTag: genTag, resp: cl.resp[s], batch: cl.resps[s]}
			cl.pending[s] = true
		}
	}

	// Drain arrivals in order. The first arrival's StartNS closes the
	// fan-out, and every later one chains from its predecessor's EndNS: the
	// drain is sequential, so the previous decision's end IS this one's
	// start, give or take bookkeeping the score stage absorbs. A decision
	// thus costs two clock reads (commit, end) and the batch two more.
	lastNS := c.now()
	c.met.batchProbe.Observe(obs.Seconds(fanNS, lastNS))
	for i, g := range games {
		tm := BatchTiming{StartNS: lastNS}
		probes0 := cl.probes
		pl, ok := cl.placeOne(g, cand[i*kk:(i+1)*kk], genTag, &tm)
		tm.Probes = cl.probes - probes0
		tm.EndNS = c.now()
		lastNS = tm.EndNS
		c.met.decision.Observe(obs.Seconds(tm.StartNS, tm.EndNS))
		dst[i] = BatchResult{Placement: pl, OK: ok, Timing: tm}
	}
	// Leave no reply buffered: the next call expects its channels empty.
	for s := range cl.pending {
		cl.collect(s)
	}
	cl.flushStats()
	return dst
}

// placeOne runs one arrival's decision: optimistic probe→commit rounds on
// the sampled candidates, then the whole fleet.
func (cl *Caller) placeOne(game int, candidates []int, genTag uint64, tm *BatchTiming) (Placement, bool) {
	c := cl.c
	tm.Cands = len(candidates)
	lost := false
	for attempt := 0; attempt < callerRetries; attempt++ {
		best, shard, found := cl.probe(candidates, game, genTag, false)
		if !found {
			break
		}
		if pl, ok := cl.tryCommit(game, shard, best, tm); ok {
			return pl, true
		}
		lost = true
	}
	if !lost && len(candidates) < c.nShards {
		// Escape hatch: every sampled shard rejected (saturated); scan the
		// whole fleet rather than shedding a placeable session.
		cl.escapes++
		c.met.escapes.Inc()
		c.flight.TryRecord(flight.Event{Kind: "escape", Game: game})
		tm.Escape = true
	}
	tm.Cands = c.nShards
	return cl.placeWide(game, genTag, tm)
}

// placeWide settles an arrival against the whole fleet. The first probe is
// optimistic like any other, and validated like any other: a found server
// goes through tryCommit, and a full-fleet reject stands only if the
// cluster's mutation count did not move while the probe ran — then every
// shard's answer describes one and the same instant. Otherwise another
// caller is racing us, and the probe is repeated under the commit lock:
// while it is held no commit or removal can land anywhere (every mutating
// shard send holds it, and shard queues are FIFO), so the answers are
// consistent with the occupancy ledger by construction — the commit cannot
// fail, and a not-found is a true full-fleet reject.
func (cl *Caller) placeWide(game int, genTag uint64, tm *BatchTiming) (Placement, bool) {
	c := cl.c
	c.mu.Lock()
	before := c.mutations()
	c.mu.Unlock()
	best, shard, found := cl.probe(c.all, game, genTag, true)
	if found {
		if pl, ok := cl.tryCommit(game, shard, best, tm); ok {
			return pl, true
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if found || c.mutations() != before {
		c.stats.LockedProbes++
		c.met.lockedProbes.Inc()
		best, shard, found = cl.probe(c.all, game, genTag, true)
	}
	if !found {
		c.stats.Rejected++
		c.met.rejected.Inc()
		return Placement{}, false
	}
	return cl.commitLocked(game, shard, best, tm), true
}

// probe fans scoring requests out to the candidate shards and reduces the
// replies to the best (delta, lowest global server id) placement. Unless
// fresh, a candidate whose batched answer this caller has not dirtied is
// answered from the batch. Replies are read in candidate order and the
// reduce is order-independent, so goroutine scheduling never changes the
// answer.
func (cl *Caller) probe(candidates []int, game int, genTag uint64, fresh bool) (shardResp, int, bool) {
	c := cl.c
	for _, id := range candidates {
		cl.collect(id)
		if cl.batched(id, game, fresh) < 0 {
			c.shards[id].reqs <- shardReq{op: opScore, game: game, genTag: genTag, resp: cl.resp[id]}
		}
	}
	var best shardResp
	bestShard, found := -1, false
	for _, id := range candidates {
		var r shardResp
		j := cl.batched(id, game, fresh)
		if j >= 0 {
			r = cl.resps[id][j]
		} else {
			r = <-cl.resp[id]
			cl.probes++
			cl.scanned += r.scanned
			cl.misses += r.misses
			if !fresh {
				c.met.reprobes.Inc()
			}
		}
		if !r.ok {
			continue
		}
		if !found || r.delta > best.delta || (r.delta == best.delta && r.server < best.server) {
			best, bestShard, found = r, id, true
		}
	}
	return best, bestShard, found
}

// batched returns the index of game's still-valid batched answer from
// shard s, or -1 when the shard must be probed fresh. Candidate game lists
// are k-small, so the scan is linear.
func (cl *Caller) batched(s, game int, fresh bool) int {
	if fresh || cl.dirty[s] {
		return -1
	}
	return lookupIdx(cl.games[s], game)
}

func lookupIdx(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// tryCommit books the chosen placement under the commit lock, failing if
// another lane filled the server since the probe; the shard is then probed
// fresh on the next attempt.
func (cl *Caller) tryCommit(game, shard int, best shardResp, tm *BatchTiming) (Placement, bool) {
	c := cl.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.occ[best.server] >= c.max {
		c.stats.CommitConflicts++
		c.met.conflicts.Inc()
		cl.dirty[shard] = true
		return Placement{}, false
	}
	return cl.commitLocked(game, shard, best, tm), true
}

// commitLocked books an admitted session onto its chosen shard/server; the
// caller holds c.mu. The commit itself is fire-and-forget, and sent under
// the lock so per-shard delivery order matches ticket order — that ordering
// is what makes a later Remove unable to overtake the commit it depends on.
func (cl *Caller) commitLocked(game, shard int, best shardResp, tm *BatchTiming) Placement {
	c := cl.c
	tm.CommitNS = c.now()
	sid := c.nextSID
	c.nextSID++
	seq := c.commitSeq
	c.commitSeq++
	c.shards[shard].reqs <- shardReq{op: opCommit, game: game, sid: sid, server: best.server}
	cl.dirty[shard] = true
	c.sessions[sid] = sessionLoc{shard: shard, server: best.server, game: game}
	c.loads[shard]++
	c.occ[best.server]++
	c.stats.Placed++
	c.stats.Active++
	if c.stats.Active > c.stats.PeakActive {
		c.stats.PeakActive = c.stats.Active
	}
	c.met.placements.Inc()
	c.met.active.Set(float64(c.stats.Active))
	c.met.shardSessions[shard].Set(float64(c.loads[shard]))
	return Placement{Session: sid, Server: best.server, Shard: shard, Delta: best.delta, Seq: seq}
}

// Migrate moves a placed session to the best server other than the one it
// is on, keeping its id, and reports where it went; false — with the session
// left in place — when the id is unknown or no other server has room. The
// whole move holds the commit lock: the session's own server is masked out
// of its shard's index for the probe and filed back before anything moves,
// so every other server is scored against the fleet exactly as it stands,
// and under the lock the answer cannot go stale before the move books it.
func (cl *Caller) Migrate(sid int) (server int, ok bool) {
	c := cl.c
	c.mu.Lock()
	loc, ok := c.sessions[sid]
	if !ok {
		c.mu.Unlock()
		return 0, false
	}
	genTag := c.genTag()
	src := c.shards[loc.shard]
	src.reqs <- shardReq{op: opMask, server: loc.server}
	c.masks++
	best, shard, found := cl.probe(c.all, loc.game, genTag, true)
	src.reqs <- shardReq{op: opUnmask, server: loc.server}
	if found {
		c.moveLocked(sid, loc, shard, best.server)
		c.stats.Migrated++
	}
	c.mu.Unlock()
	cl.flushStats()
	return best.server, found
}

// Remove departs a session; false when the id is unknown. Sequenced under
// the commit lock, so a Leave that raced an Admit whose reply the client
// already observed always finds the session — the booking preceded the
// reply, and both hold the lock. The shard's ack is awaited after the lock
// is released: the sessions map is authoritative, so the ack decides
// nothing, but waiting for it keeps this goroutine from queueing further
// work on a shard that has not caught up.
func (cl *Caller) Remove(sid int) bool {
	c := cl.c
	c.mu.Lock()
	loc, ok := c.sessions[sid]
	if !ok {
		c.mu.Unlock()
		return false
	}
	c.shards[loc.shard].reqs <- shardReq{op: opRemove, sid: sid, server: loc.server, resp: cl.resp[loc.shard]}
	delete(c.sessions, sid)
	c.loads[loc.shard]--
	c.occ[loc.server]--
	c.stats.Removed++
	c.stats.Active--
	c.met.active.Set(float64(c.stats.Active))
	c.met.shardSessions[loc.shard].Set(float64(c.loads[loc.shard]))
	c.mu.Unlock()
	<-cl.resp[loc.shard]
	return true
}
