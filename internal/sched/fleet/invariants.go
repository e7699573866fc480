package fleet

import "fmt"

// CheckInvariants compares the balancer's bookkeeping with the shards'
// ground truth and returns the first discrepancy: every session lives
// exactly where the session table says, once; per-shard loads and the
// per-server occupancy ledger match shard contents and stay within
// capacity; a down server holds no sessions, sits in no state group and not
// in the idle heap, and its slots are out of its shard's capacity; every
// other server is in exactly the group its contents name; each shard's open
// slice holds exactly the map's groups with room, each once, at the position
// the group records, the map holds no empty group, and no group freed for
// reuse is in either or has a member; each shard's memo holds live rows
// only, each indexed once under its key, within the cap (a group trusts
// its row pointer only while that row is live under the group's key, so
// this is what keeps a recycled row out of every probe); the counters
// conserve sessions; commit tickets are dense.
//
// It holds the commit lock throughout and quiesces every shard first
// (commits are fire-and-forget), so no mutation can be in flight while it
// reads shard state: the reads are race-free even with callers running,
// which merely wait for their next commit. Probe-side counters are not
// checked; they settle only when no call is in flight.
func CheckInvariants(c *Cluster) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.shards {
		sh.reqs <- shardReq{op: opBarrier}
		<-sh.resp
	}
	total := 0
	seen := make(map[int]bool, len(c.sessions))
	for si, sh := range c.shards {
		load, up := 0, 0
		for local, slots := range sh.slots {
			server := sh.lo + local
			g := sh.groups[multisetHash(sh.contents[local])]
			grouped := g != nil && sh.pos[local] < len(g.members) && g.members[sh.pos[local]] == local
			if c.down[server] {
				if len(slots) > 0 || grouped || sh.idle.pos[local] >= 0 || c.occ[server] != c.max {
					return fmt.Errorf("down server %d: %d sessions, grouped %v, idle slot %d, ledger %d",
						server, len(slots), grouped, sh.idle.pos[local], c.occ[server])
				}
				continue
			}
			up++
			if !grouped {
				return fmt.Errorf("server %d is not in the state group of its contents %v", server, sh.contents[local])
			}
			if inHeap := sh.idle.pos[local] >= 0; inHeap != (len(slots) < c.max) {
				return fmt.Errorf("server %d: %d/%d sessions but idle-heap membership %v", server, len(slots), c.max, inHeap)
			}
			if len(slots) != len(sh.contents[local]) {
				return fmt.Errorf("server %d: %d slots vs %d contents", server, len(slots), len(sh.contents[local]))
			}
			if len(slots) > c.max {
				return fmt.Errorf("server %d over capacity: %d > %d", server, len(slots), c.max)
			}
			if c.occ[server] != len(slots) {
				return fmt.Errorf("server %d: occupancy ledger %d, actual %d", server, c.occ[server], len(slots))
			}
			load += len(slots)
			for i, sid := range slots {
				if seen[sid] {
					return fmt.Errorf("session %d placed twice", sid)
				}
				seen[sid] = true
				loc, ok := c.sessions[sid]
				if !ok {
					return fmt.Errorf("shard %d holds unknown session %d", si, sid)
				}
				if got := (sessionLoc{si, server, sh.contents[local][i]}); loc != got {
					return fmt.Errorf("session %d: table says shard/server/game %+v, shard state says %+v", sid, loc, got)
				}
			}
		}
		if err := sh.checkGroupIndex(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		if err := sh.memo.check(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		if load != c.loads[si] {
			return fmt.Errorf("shard %d: balancer load %d, actual %d", si, c.loads[si], load)
		}
		if c.caps[si] != up*c.max {
			return fmt.Errorf("shard %d: capacity %d with %d servers up at %d each", si, c.caps[si], up, c.max)
		}
		total += load
	}
	st := c.stats
	if total != len(c.sessions) || total != st.Active || st.Active != st.Placed-st.Removed {
		return fmt.Errorf("session count mismatch: shards %d, table %d, active %d, placed %d - removed %d",
			total, len(c.sessions), st.Active, st.Placed, st.Removed)
	}
	if int(c.commitSeq) != st.Placed {
		return fmt.Errorf("commit tickets not dense: next seq %d, placed %d", c.commitSeq, st.Placed)
	}
	return nil
}

// checkGroupIndex verifies the shard's two group structures against each
// other: the by-hash map files every group under the hash of its state and
// holds none without a member; open holds exactly the map's groups with room
// for another game, each at the position it records. A group emptied by a
// departure, a crash or a mask is therefore in neither — it sits memberless
// on the free list — and a full one only in the map.
func (sh *shard) checkGroupIndex() error {
	for h, g := range sh.groups {
		switch {
		case g.hash != h || multisetHash(g.games) != h:
			return fmt.Errorf("group %v filed under hash %#x, records %#x", g.games, h, g.hash)
		case len(g.members) == 0:
			return fmt.Errorf("empty group %v left in the map", g.games)
		case len(g.games) >= sh.max:
			if g.at != -1 {
				return fmt.Errorf("full group %v claims open position %d", g.games, g.at)
			}
		default:
			if g.at < 0 || g.at >= len(sh.open) || sh.open[g.at] != g {
				return fmt.Errorf("group %v has room but open[%d] is not it", g.games, g.at)
			}
		}
	}
	for i, g := range sh.open {
		if g == nil || g.at != i || sh.groups[g.hash] != g {
			return fmt.Errorf("open[%d] is not a live group recording that position", i)
		}
	}
	// Every open group is in the map, so a freed group absent from the map
	// is in neither structure.
	for _, g := range sh.free {
		if len(g.members) > 0 || g.at != -1 || sh.groups[g.hash] == g {
			return fmt.Errorf("freed group %v is still live: %d members, open position %d", g.games, len(g.members), g.at)
		}
	}
	return nil
}

// check verifies the memo's bookkeeping: the live rows are exactly the
// FIFO's from its head, each indexed once under its key, with nothing else
// in the map; between them they hold the counted scores, within the cap;
// no row is wider than the slots handed out; the row kept for recycling is
// dead.
func (m *memo) check() error {
	held := 0
	for _, r := range m.fifo[m.head:] {
		if r == nil || !r.live || m.rows[r.key] != r {
			return fmt.Errorf("memo FIFO holds a row that is not live under its key")
		}
		if len(r.cand) > len(m.slots) {
			return fmt.Errorf("memo row %#x has %d slots, %d games known", r.key, len(r.cand), len(m.slots))
		}
		held += 1 + len(r.cand)
	}
	switch {
	case len(m.rows) != len(m.fifo)-m.head:
		return fmt.Errorf("memo indexes %d rows, its FIFO holds %d", len(m.rows), len(m.fifo)-m.head)
	case held != m.held || held > m.limit:
		return fmt.Errorf("memo rows hold %d scores, counted %d, cap %d", held, m.held, m.limit)
	case m.spare != nil && m.spare.live:
		return fmt.Errorf("memo keeps live row %#x for recycling", m.spare.key)
	}
	return nil
}
