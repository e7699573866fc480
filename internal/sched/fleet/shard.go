package fleet

import (
	"math"
	"sort"

	"gaugur/internal/sim"
)

// A shard owns a contiguous slice of the fleet's servers and is the ONLY
// goroutine that ever touches their state — the balancer talks to it
// exclusively through its request channel, so shard state needs no locks
// and the race detector has nothing to find. Each shard keeps:
//
//   - per-server contents (sorted game multisets) and session slots,
//   - a state-group index: servers bucketed by occupant multiset, so a
//     scoring pass costs O(distinct states), not O(servers) — at fleet
//     scale thousands of servers collapse into a few dozen states. It is two
//     structures: a by-hash map answers "where does this server's new state
//     live" when a commit or departure regroups it, and the dense open slice
//     holds exactly the groups a probe may answer with (a member, and room
//     for one more game), so the probe never visits a full group and never
//     pays Go's map iteration,
//   - its own generation-keyed score memo (cache.go): one row per state,
//     holding the state's score and, by game slot, the score of the state
//     plus each game. An open group keeps a pointer to its row, so a warm
//     probe reads both scores by index with no hashing. Every key carries
//     the model generation, so a hot swap makes stale rows unreachable with
//     no flush and no locking on the placement path,
//   - an idle heap over its non-full servers (O(1) capacity check and
//     emptiest-server lookup).
//
// A server that is down (Cluster.FailServer) or masked (Cluster.Migrate
// scoring around a session's own server) is simply in neither index, so
// no probe can answer with it and the scoring code never tests for it.
//
// Scoring is three-phase: one pass over the state groups reads every needed
// score from the groups' rows — or, on a row miss, from wherever else the
// memo holds it — and queues the states it holds nowhere, one BatchScorer
// call scores them all (one blocked pass through the compiled forest), and
// the reduce picks the best (delta, lowest global server id) candidate from
// what the first pass noted, filing each new score in its group's row on
// the way. The first pass copies every score it reads, so a row evicted
// mid-probe costs no answer, and the reduce files a score only in a live
// row under its group's key: a row recycled for another state mid-probe is
// left alone. The reduce is order-independent, so the order the open slice
// happens to hold its groups in never changes an answer; it may change
// which rows a full memo evicts.

// shardOp enumerates the balancer->shard requests.
type shardOp int

const (
	opScore shardOp = iota
	opScoreBatch
	opCommit
	opRemove
	opFail
	opMask
	opUnmask
	opSnapshot
	opServer
	opBarrier
)

// shardReq is one balancer->shard message.
type shardReq struct {
	op     shardOp
	game   int
	games  []int // score-batch: deduped games, scored in one scorer call
	genTag uint64
	sid    int
	server int // global server id (commit/remove/fail/mask/unmask)
	// resp, when non-nil, receives this request's reply instead of the
	// shard's default channel — how concurrent Callers interleave requests
	// to one shard without mixing up each other's answers. The default
	// channel carries only traffic sent under the cluster's commit lock
	// (moves, crashes, snapshots, barriers).
	resp chan shardResp
	// batch is the caller's reply buffer for opScoreBatch, handed back
	// filled in shardResp.batch. With at most one outstanding reply per
	// (caller, shard), the shard is the buffer's only user until it replies.
	batch []shardResp
}

// shardResp is the shard's answer, sent on its dedicated reply channel.
type shardResp struct {
	ok        bool
	server    int // global server id of the best candidate
	delta     float64
	scanned   int        // state groups considered
	misses    int        // scorer invocations (uncached states)
	residents []Resident // fail/server: the server's sessions, in slot order
	snap      [][]int
	// batch carries one per-game answer for opScoreBatch, aligned with the
	// request's games slice. The kernel misses of the whole batch are
	// attributed to entry 0 (they are gathered into one scorer call, so a
	// per-game split would be arbitrary).
	batch []shardResp
}

// group is one occupant-multiset bucket: the canonical sorted state plus
// an indexed min-heap of the local server indices currently in it.
// members[0] is always the group's tie-break representative (lowest id) —
// the only ordering the scoring reduce ever reads — so membership updates
// cost O(log n) instead of the O(n) memmove a fully sorted slice pays on
// every commit (group sizes reach servers-per-shard; at fleet scale that
// was the single most expensive step of a placement).
//
// A group lives from its first member to its last: the by-hash map never
// holds an empty one. hash is its key there; at is its position in
// shard.open, or -1 for a full group, which no probe may answer with. An
// emptied group goes on shard.free, and newGroup refiles it under the next
// new state with its games and members arrays reused. row is the memo row
// the group last read its scores from, trusted only while it is live under
// the group's key (hash plus the generation tag), so neither a refiled group
// nor a recycled row needs clearing.
type group struct {
	games   []int
	hash    uint64
	at      int
	members []int // min-heap by local index; heap positions in shard.pos
	row     *row
}

// scan is what the gather pass notes per (game, eligible group): the group
// and its two scores — the state with the game added and the state as it
// stands — each either read from the memo or, when the index is >= 0,
// waiting at that position of the pending list.
type scan struct {
	g              *group
	cand, base     float64
	candAt, baseAt int
}

type shard struct {
	id     int
	lo, hi int // global server ids [lo, hi)
	max    int
	mode   Mode
	scorer BatchScorer
	greedy bool
	reqs   chan shardReq
	resp   chan shardResp

	contents [][]int // local idx -> sorted game multiset
	slots    [][]int // local idx -> session ids aligned with contents
	groups   map[uint64]*group
	open     []*group // the groups with room, dense: what a probe walks
	free     []*group // emptied groups, in neither index, for newGroup to reuse
	idle     *idleHeap
	memo     *memo

	// scoring scratch, reused across requests. pendIdx indexes pendStates
	// by key: a batched probe gathers games × groups states, so membership
	// must stay O(1).
	scans      []scan
	pendStates [][]int
	pendVals   []float64
	pendIdx    map[uint64]int
	pos        []int // local idx -> position in its current group's member heap
}

func newShard(id, lo, hi, max int, mode Mode, scorer BatchScorer, cacheCap int) *shard {
	n := hi - lo
	sh := &shard{
		id: id, lo: lo, hi: hi, max: max,
		mode:     mode,
		scorer:   scorer,
		greedy:   mode == ModeGreedy,
		reqs:     make(chan shardReq, 1),
		resp:     make(chan shardResp, 1),
		contents: make([][]int, n),
		slots:    make([][]int, n),
		groups:   map[uint64]*group{},
		idle:     newIdleHeap(n),
		memo:     newMemo(cacheCap),
		pendIdx:  map[uint64]int{},
		pos:      make([]int, n),
	}
	// All servers start in the empty group (hash 0); an ascending array is
	// already a valid min-heap with pos[i] = i.
	g := sh.newGroup(nil, 0)
	g.members = make([]int, n)
	for i := range g.members {
		g.members[i] = i
		sh.pos[i] = i
	}
	return sh
}

// heapPush adds local server v to g's member heap.
func (sh *shard) heapPush(g *group, v int) {
	g.members = append(g.members, v)
	sh.siftUp(g, len(g.members)-1)
}

// heapRemove deletes local server v from g's member heap via its tracked
// position.
func (sh *shard) heapRemove(g *group, v int) {
	p := sh.pos[v]
	last := len(g.members) - 1
	if p != last {
		moved := g.members[last]
		g.members[p] = moved
		sh.pos[moved] = p
	}
	g.members = g.members[:last]
	if p < last {
		p = sh.siftDown(g, p)
		sh.siftUp(g, p)
	}
}

func (sh *shard) siftUp(g *group, i int) {
	m := g.members
	v := m[i]
	for i > 0 {
		parent := (i - 1) / 2
		if m[parent] <= v {
			break
		}
		m[i] = m[parent]
		sh.pos[m[i]] = i
		i = parent
	}
	m[i] = v
	sh.pos[v] = i
}

func (sh *shard) siftDown(g *group, i int) int {
	m := g.members
	n := len(m)
	v := m[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && m[c+1] < m[c] {
			c++
		}
		if m[c] >= v {
			break
		}
		m[i] = m[c]
		sh.pos[m[i]] = i
		i = c
	}
	m[i] = v
	sh.pos[v] = i
	return i
}

// run is the shard dispatcher goroutine: one request at a time, state
// confined, reply per request on the requester's channel (req.resp when a
// Caller asked, the shard's default channel otherwise).
func (sh *shard) run() {
	for req := range sh.reqs {
		out := sh.resp
		if req.resp != nil {
			out = req.resp
		}
		switch req.op {
		case opScore:
			out <- sh.scoreBest(req.game, req.genTag)
		case opScoreBatch:
			out <- shardResp{ok: true, batch: sh.scoreBatch(req.games, req.genTag, req.batch)}
		case opCommit:
			// Fire-and-forget: the balancer never needs an ack — channel
			// FIFO already orders any later probe or remove behind the
			// commit, so acking would only stall the sender for nothing.
			sh.commit(req.game, req.sid, req.server-sh.lo)
		case opRemove:
			out <- shardResp{ok: sh.remove(req.sid, req.server-sh.lo)}
		case opFail:
			out <- shardResp{ok: true, residents: sh.fail(req.server - sh.lo)}
		case opMask:
			// Fire-and-forget like opCommit: FIFO orders the probe behind it.
			sh.mask(req.server - sh.lo)
		case opUnmask:
			sh.unmask(req.server - sh.lo)
		case opSnapshot:
			snap := make([][]int, len(sh.contents))
			for i, c := range sh.contents {
				if len(c) > 0 {
					snap[i] = append([]int(nil), c...)
				}
			}
			out <- shardResp{ok: true, snap: snap}
		case opServer:
			out <- shardResp{ok: true, residents: sh.residents(req.server - sh.lo)}
		case opBarrier:
			// Pure synchronization: the reply proves every earlier
			// (possibly fire-and-forget) request has been applied.
			out <- shardResp{ok: true}
		}
	}
}

// resetPending clears the scoring scratch for a fresh probe.
func (sh *shard) resetPending() {
	sh.scans = sh.scans[:0]
	sh.pendStates = sh.pendStates[:0]
	clear(sh.pendIdx)
}

// rowOf returns g's memo row under genTag: the one it points at while that
// is live under its key, else the memo's row for the key, filed anew when
// there is none.
func (sh *shard) rowOf(g *group, genTag uint64) *row {
	k := g.hash + genTag
	r := g.row
	if r == nil || !r.live || r.key != k {
		if r = sh.memo.rows[k]; r == nil {
			r = sh.memo.newRow(k)
		}
		g.row = r
	}
	r.used = true
	return r
}

// lookup resolves a score g's row does not hold, of the state keyed k: g's
// own state, or g's state plus game when cand. It returns the score held
// elsewhere in the memo, or the state's position in the pending list
// (queued now unless an earlier group or game of this probe already did).
// Only a state queued now is materialized, so warm probes never allocate.
func (sh *shard) lookup(k uint64, g *group, game int, cand bool) (float64, int) {
	if at, ok := sh.pendIdx[k]; ok {
		return 0, at
	}
	if v, ok := sh.memo.recall(k, g.games, cand); ok {
		return v, -1
	}
	at := len(sh.pendStates)
	sh.pendIdx[k] = at
	state := g.games
	if cand {
		state = insertSorted(g.games, game)
	}
	sh.pendStates = append(sh.pendStates, state)
	return 0, at
}

// leastLoadedBest answers a probe in ModeLeastLoaded: the idle heap's top
// IS the answer. Delta is the negated occupancy so the balancer's
// max-reduce picks the global minimum, tie-broken by server id exactly
// like the flat policy.
func (sh *shard) leastLoadedBest() shardResp {
	local := sh.idle.top()
	return shardResp{
		ok:     true,
		server: sh.lo + local,
		delta:  -float64(len(sh.contents[local])),
	}
}

// gatherGame appends one scan per group that can still take game — its
// occupant state and its occupants+game candidate, each read from the
// group's row, recalled into it, or queued for scoring — and returns how
// many groups that was.
func (sh *shard) gatherGame(game int, genTag uint64) int {
	gh := sim.Mix64(uint64(game))
	slot := sh.memo.slot(game)
	from := len(sh.scans)
	for _, g := range sh.open {
		r := sh.rowOf(g, genTag)
		e := scan{g: g, cand: r.candAt(slot), candAt: -1, baseAt: -1}
		if math.IsNaN(e.cand) {
			if e.cand, e.candAt = sh.lookup(r.key+gh, g, game, true); e.candAt < 0 {
				sh.memo.putCand(r, slot, e.cand)
			}
		}
		if len(g.games) > 0 {
			if e.base = r.base; math.IsNaN(e.base) {
				if e.base, e.baseAt = sh.lookup(r.key, g, game, false); e.baseAt < 0 {
					r.base = e.base
				}
			}
		}
		sh.scans = append(sh.scans, e)
	}
	return len(sh.scans) - from
}

// scorePending scores every queued state through ONE scorer call — the
// whole point of batching probes: the compiled forest runs at full chunk
// occupancy instead of one underfilled pass per game. Returns the number of
// states scored. The answers stay in the pending list until the reduce.
func (sh *shard) scorePending() int {
	if len(sh.pendStates) > 0 {
		sh.pendVals = sh.scorer.ScoreStates(sh.pendStates, sh.pendVals[:0])
	}
	return len(sh.pendStates)
}

// reduce picks the best (delta, lowest server id) candidate among the
// scans of the game in memo slot slot, filling in the scores scorePending
// just computed and filing them in each group's row — only while that row
// is live under the group's key: an earlier write-back or gather of this
// very probe may have evicted it and recycled it for another state.
func (sh *shard) reduce(scans []scan, slot int, genTag uint64) shardResp {
	best, bestDelta, found := -1, 0.0, false
	for _, e := range scans {
		if e.candAt >= 0 || e.baseAt >= 0 {
			r := e.g.row
			keep := r.live && r.key == e.g.hash+genTag
			if e.candAt >= 0 {
				if e.cand = sh.pendVals[e.candAt]; keep {
					sh.memo.putCand(r, slot, e.cand)
				}
			}
			if e.baseAt >= 0 {
				if e.base = sh.pendVals[e.baseAt]; keep {
					r.base = e.base
				}
			}
		}
		srv := e.g.members[0]
		delta := e.cand - e.base
		if !found || delta > bestDelta || (delta == bestDelta && srv < best) {
			found, best, bestDelta = true, srv, delta
		}
	}
	if !found {
		return shardResp{ok: false}
	}
	return shardResp{ok: true, server: sh.lo + best, delta: bestDelta, scanned: len(scans)}
}

// scoreBest answers the balancer's candidate probe: the shard's best
// placement for game under the current model generation, or ok=false when
// the shard is saturated. Pure with respect to shard state (only the
// score memo warms up), so concurrent probes of different shards commute.
func (sh *shard) scoreBest(game int, genTag uint64) shardResp {
	if sh.idle.empty() {
		return shardResp{ok: false}
	}
	if !sh.greedy {
		return sh.leastLoadedBest()
	}
	sh.resetPending()
	sh.gatherGame(game, genTag)
	misses := sh.scorePending()
	r := sh.reduce(sh.scans, sh.memo.slot(game), genTag)
	r.misses = misses
	return r
}

// scoreBatch answers one probe for MANY games at once: the uncached
// states of every game's scan are gathered together and scored through a
// single BatchScorer call, so a 16-arrival admission batch fills the
// compiled kernel's 16-wide chunks instead of trickling singleton states
// through it. Answers are bit-identical to calling scoreBest per game
// against unchanged shard state (the scorer is pure; only the memo
// warms). The answers are written into out, the requesting caller's reply
// buffer, grown when short.
func (sh *shard) scoreBatch(games []int, genTag uint64, out []shardResp) []shardResp {
	if cap(out) < len(games) {
		out = make([]shardResp, len(games))
	}
	out = out[:len(games)]
	clear(out)
	if sh.idle.empty() {
		return out // every entry ok:false — the shard is saturated
	}
	if !sh.greedy {
		// Least-loaded: against unchanged state every game gets the same
		// emptiest server (commits between uses dirty the shard, so the
		// balancer re-probes before the answer can go stale).
		r := sh.leastLoadedBest()
		for i := range out {
			out[i] = r
		}
		return out
	}
	sh.resetPending()
	for i, g := range games {
		out[i].scanned = sh.gatherGame(g, genTag)
	}
	misses := sh.scorePending()
	from := 0
	for i, g := range games {
		n := out[i].scanned
		out[i] = sh.reduce(sh.scans[from:from+n], sh.memo.slot(g), genTag)
		from += n
	}
	if len(out) > 0 {
		out[0].misses = misses
	}
	return out
}

// regroup moves local server idx from its current multiset group to the
// one matching its (already mutated) contents.
func (sh *shard) regroup(local int, oldHash uint64) {
	sh.leaveGroup(local, oldHash)
	sh.joinGroup(local)
}

// newGroup files an empty group for a copy of the state games under hash,
// and in the open slice when the state has room for another game. It
// recycles a freed group when there is one.
func (sh *shard) newGroup(games []int, hash uint64) *group {
	var g *group
	if n := len(sh.free); n > 0 {
		g = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		g = &group{}
	}
	g.games, g.hash, g.at = append(g.games[:0], games...), hash, -1
	sh.groups[hash] = g
	if len(games) < sh.max {
		g.at = len(sh.open)
		sh.open = append(sh.open, g)
	}
	return g
}

// leaveGroup takes local server idx out of the group keyed hash. The last
// member out deletes the group from both structures — the open slice's last
// group takes its place — and frees it for reuse.
func (sh *shard) leaveGroup(local int, hash uint64) {
	g := sh.groups[hash]
	sh.heapRemove(g, local)
	if len(g.members) > 0 {
		return
	}
	delete(sh.groups, hash)
	if g.at >= 0 {
		last := len(sh.open) - 1
		moved := sh.open[last]
		sh.open[g.at], moved.at = moved, g.at
		sh.open[last] = nil
		sh.open = sh.open[:last]
		g.at = -1
	}
	sh.free = append(sh.free, g)
}

// joinGroup files local server idx under the group matching its contents.
func (sh *shard) joinGroup(local int) {
	hash := multisetHash(sh.contents[local])
	g := sh.groups[hash]
	if g == nil {
		g = sh.newGroup(sh.contents[local], hash)
	}
	sh.heapPush(g, local)
}

// mask takes local server idx out of the placement index — its state group
// and the idle heap — leaving its contents alone: no probe can answer with
// it until unmask files it back under whatever it then holds.
func (sh *shard) mask(local int) {
	sh.leaveGroup(local, multisetHash(sh.contents[local]))
	sh.idle.update(local, sh.max, sh.max)
}

func (sh *shard) unmask(local int) {
	sh.joinGroup(local)
	sh.idle.update(local, len(sh.contents[local]), sh.max)
}

// fail crashes local server idx: it leaves the placement index and its
// sessions are evicted and returned in slot order. unmask brings it back.
func (sh *shard) fail(local int) []Resident {
	sh.mask(local)
	out := sh.residents(local)
	sh.contents[local], sh.slots[local] = sh.contents[local][:0], sh.slots[local][:0]
	return out
}

// residents copies local server idx's sessions out in slot order.
func (sh *shard) residents(local int) []Resident {
	out := make([]Resident, len(sh.slots[local]))
	for i, sid := range sh.slots[local] {
		out[i] = Resident{Session: sid, Game: sh.contents[local][i]}
	}
	return out
}

// commit admits session sid running game onto local server idx.
func (sh *shard) commit(game, sid, local int) {
	oldHash := multisetHash(sh.contents[local])
	i := sort.SearchInts(sh.contents[local], game)
	sh.contents[local] = insertAt(sh.contents[local], i, game)
	sh.slots[local] = insertAt(sh.slots[local], i, sid)
	sh.regroup(local, oldHash)
	sh.idle.update(local, len(sh.contents[local]), sh.max)
}

// remove evicts session sid from local server idx; false when the session
// is not there.
func (sh *shard) remove(sid, local int) bool {
	at := -1
	for i, id := range sh.slots[local] {
		if id == sid {
			at = i
			break
		}
	}
	if at < 0 {
		return false
	}
	oldHash := multisetHash(sh.contents[local])
	sh.contents[local] = append(sh.contents[local][:at], sh.contents[local][at+1:]...)
	sh.slots[local] = append(sh.slots[local][:at], sh.slots[local][at+1:]...)
	sh.regroup(local, oldHash)
	sh.idle.update(local, len(sh.contents[local]), sh.max)
	return true
}

// insertSorted returns a new sorted slice with g inserted.
func insertSorted(games []int, g int) []int {
	out := make([]int, 0, len(games)+1)
	out = append(out, games...)
	i := sort.SearchInts(out, g)
	out = append(out, 0)
	copy(out[i+1:], out[i:])
	out[i] = g
	return out
}

// insertAt inserts v at index i, reusing xs's backing array when it has
// room — commits run once per placement, so this path must not allocate
// once server slices have warmed up to their steady size.
func insertAt(xs []int, i, v int) []int {
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}
