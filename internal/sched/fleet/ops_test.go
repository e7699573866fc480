package fleet

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// TestOpsMatchFlatOracle drives arrivals, departures, crashes, restores and
// migrations through a single-shard cluster in both modes and checks every
// decision against the flat scan run on a mirror of the fleet in which a
// down server — and, for a migration, the session's own server — is masked
// as full. That masked scan is what the cluster's three fault operations
// stand for; the cluster itself never tests for a down server while scoring.
// The greedy rule runs a second time behind a two-entry score cache, which
// evicts inside every probe: the uncached oracle is what says eviction keeps
// the results. After every op Server must read back, for every server, the
// mirror's sessions in slot order: by game, the latest to join first among
// equals, and nothing on a down server.
func TestOpsMatchFlatOracle(t *testing.T) {
	const servers, max = 10, 3
	misses := map[int]int{}
	for _, tc := range []struct {
		mode     Mode
		cacheCap int
	}{{ModeGreedy, 0}, {ModeGreedy, 2}, {ModeLeastLoaded, 0}} {
		mode := tc.mode
		c, err := New(Config{NumServers: servers, MaxPerServer: max, Mode: mode, Scorer: ScorerFunc(synthScore), CacheCap: tc.cacheCap})
		if err != nil {
			t.Fatal(err)
		}
		flat := flatGreedy(synthScore, max)
		if mode == ModeLeastLoaded {
			flat = flatLeastLoaded(max)
		}
		type placed struct{ server, game, joined int }
		contents := make([][]int, servers)
		down := make([]bool, servers)
		where := map[int]placed{}
		var active []int
		blocked := make([]int, max)
		view := func(exclude int) [][]int {
			v := make([][]int, servers)
			for s := range v {
				v[s] = contents[s]
				if down[s] || s == exclude {
					v[s] = blocked
				}
			}
			return v
		}
		leave := func(sid int) {
			p := where[sid]
			delete(where, sid)
			for j, g := range contents[p.server] {
				if g == p.game {
					contents[p.server] = append(contents[p.server][:j:j], contents[p.server][j+1:]...)
					break
				}
			}
			for j, a := range active {
				if a == sid {
					active = append(active[:j], active[j+1:]...)
					break
				}
			}
		}
		joins := 0
		join := func(sid, server, game int) {
			joins++
			where[sid] = placed{server, game, joins}
			contents[server] = append(contents[server][:len(contents[server]):len(contents[server])], game)
		}

		rng := rand.New(rand.NewSource(31))
		migrated, refused, evictedN := 0, 0, 0
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(12); {
			case op == 0: // crash
				s := rng.Intn(servers)
				got := c.FailServer(s)
				if down[s] {
					if got != nil {
						t.Fatalf("step %d: failing down server %d evicted %v", step, s, got)
					}
					break
				}
				down[s] = true
				if len(got) != len(contents[s]) {
					t.Fatalf("step %d: server %d held %v, evicted %v", step, s, contents[s], got)
				}
				if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].Game < got[b].Game }) {
					t.Fatalf("step %d: evictions not in slot order: %v", step, got)
				}
				for _, e := range got {
					if p, ok := where[e.Session]; !ok || p.server != s || p.game != e.Game {
						t.Fatalf("step %d: evicted %+v, mirror has %+v (known %v)", step, e, p, ok)
					}
					if _, ok := c.Locate(e.Session); ok {
						t.Fatalf("step %d: evicted session %d still located", step, e.Session)
					}
					leave(e.Session)
					evictedN++
				}
			case op == 1: // restore
				s := rng.Intn(servers)
				c.RestoreServer(s)
				down[s] = false
			case op <= 3 && len(active) > 0: // migrate
				sid := active[rng.Intn(len(active))]
				p := where[sid]
				want, wantOK := flat.Place(view(p.server), p.game)
				got, ok := c.Migrate(sid)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("step %d: Migrate(%d) from server %d = (%d, %v), flat says (%d, %v)", step, sid, p.server, got, ok, want, wantOK)
				}
				now, located := c.Locate(sid)
				if !located {
					t.Fatalf("step %d: Migrate lost session %d", step, sid)
				}
				if !ok {
					if now != p.server {
						t.Fatalf("step %d: refused Migrate moved session %d to %d", step, sid, now)
					}
					refused++
					break
				}
				if now != got {
					t.Fatalf("step %d: session %d located on %d after moving to %d", step, sid, now, got)
				}
				leave(sid)
				join(sid, got, p.game)
				active = append(active, sid)
				migrated++
			case op <= 5 && len(active) > 0: // departure
				sid := active[rng.Intn(len(active))]
				if !c.Remove(sid) {
					t.Fatalf("step %d: session %d vanished", step, sid)
				}
				leave(sid)
			default: // arrival
				game := rng.Intn(10)
				want, wantOK := flat.Place(view(-1), game)
				pl, ok := c.Place(game)
				if ok != wantOK || (ok && pl.Server != want) {
					t.Fatalf("step %d game %d: cluster (%d, %v), flat (%d, %v)", step, game, pl.Server, ok, want, wantOK)
				}
				if ok {
					join(pl.Session, pl.Server, game)
					active = append(active, pl.Session)
				}
			}
			want := make([][]Resident, servers)
			for sid, p := range where {
				want[p.server] = append(want[p.server], Resident{Session: sid, Game: p.game})
			}
			for srv := range want {
				slices.SortFunc(want[srv], func(a, b Resident) int {
					return cmp.Or(cmp.Compare(a.Game, b.Game), cmp.Compare(where[b.Session].joined, where[a.Session].joined))
				})
				if got := c.Server(srv); !slices.Equal(got, want[srv]) {
					t.Fatalf("step %d: Server(%d) = %+v, mirror has %+v", step, srv, got, want[srv])
				}
			}
			if step%50 == 0 {
				verifyInvariants(t, c)
			}
		}
		verifyInvariants(t, c)
		for s, got := range c.Snapshot() {
			want := append([]int(nil), contents[s]...)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("mode %d server %d: cluster holds %v, mirror %v", mode, s, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mode %d server %d: cluster holds %v, mirror %v", mode, s, got, want)
				}
			}
		}
		if migrated == 0 || refused == 0 || evictedN == 0 {
			t.Fatalf("mode %d degenerate run: %d migrated, %d refused, %d evicted", mode, migrated, refused, evictedN)
		}
		st := c.Stats()
		if st.Migrated != migrated {
			t.Fatalf("Stats.Migrated = %d, want %d", st.Migrated, migrated)
		}
		if mode == ModeGreedy {
			misses[tc.cacheCap] = st.CacheMisses
		}
		c.Close()
	}
	if misses[2] <= misses[0] {
		t.Fatalf("two-entry cache never overflowed: %d misses vs %d with the default cap", misses[2], misses[0])
	}
}

// TestMigrateOnlyOwnServerHasRoom: when the only free slots in the fleet
// are on the session's own server there is nowhere else to go — Migrate
// must say so and leave the session where it is, index intact.
func TestMigrateOnlyOwnServerHasRoom(t *testing.T) {
	c, err := New(Config{NumServers: 3, ShardCount: 3, MaxPerServer: 2, K: 64, Scorer: ScorerFunc(synthScore)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var placed []Placement
	for i := 0; i < 6; i++ {
		pl, ok := c.Place(i)
		if !ok {
			t.Fatalf("fill placement %d rejected", i)
		}
		placed = append(placed, pl)
	}
	gone, stay := placed[0], Placement{}
	for _, pl := range placed[1:] {
		if pl.Server == gone.Server {
			stay = pl
		}
	}
	c.Remove(gone.Session) // the one free slot is next to stay
	if to, ok := c.Migrate(stay.Session); ok {
		t.Fatalf("Migrate moved session %d to server %d on a fleet with no other room", stay.Session, to)
	}
	if at, ok := c.Locate(stay.Session); !ok || at != stay.Server {
		t.Fatalf("refused Migrate left session on (%d, %v), want server %d", at, ok, stay.Server)
	}
	verifyInvariants(t, c)
	// The own server went back into the index: it takes the next arrival.
	if pl, ok := c.Place(7); !ok || pl.Server != stay.Server {
		t.Fatalf("arrival after refused Migrate = (%d, %v), want server %d", pl.Server, ok, stay.Server)
	}
	if _, ok := c.Migrate(1 << 30); ok {
		t.Fatal("Migrate of an unknown session succeeded")
	}
	verifyInvariants(t, c)
}

// TestFaultOpsUnderConcurrentCallers: one goroutine crashes, restores and
// migrates while admission lanes place and remove. Whatever the
// interleaving, every session a lane admitted is accounted for exactly once
// — departed through a lane, evicted by a crash, or still placed — nothing
// lands on a down server, and the balancer's ledger matches the shards'.
func TestFaultOpsUnderConcurrentCallers(t *testing.T) {
	const nCallers, steps, servers = 3, 300, 32
	c, err := New(Config{
		NumServers: servers, ShardCount: 4, MaxPerServer: 3, K: 2, Seed: 23,
		Scorer: ScorerFunc(synthScore),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var mu sync.Mutex
	pool := []int{} // admitted, not yet departed by a lane
	admitted := map[int]bool{}
	departed := map[int]bool{}
	var wg sync.WaitGroup
	for w := 0; w < nCallers; w++ {
		wg.Add(1)
		go func(w int, cl *Caller) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < steps; i++ {
				if rng.Intn(3) == 0 {
					mu.Lock()
					sid := -1
					if len(pool) > 0 {
						sid = pool[len(pool)-1]
						pool = pool[:len(pool)-1]
					}
					mu.Unlock()
					// false only means a crash evicted it first.
					if sid >= 0 && cl.Remove(sid) {
						mu.Lock()
						departed[sid] = true
						mu.Unlock()
					}
					continue
				}
				for _, r := range cl.PlaceBatch([]int{rng.Intn(11), rng.Intn(11)}, nil) {
					if r.OK {
						mu.Lock()
						pool = append(pool, r.Session)
						admitted[r.Session] = true
						mu.Unlock()
					}
				}
			}
		}(w, c.NewCaller())
	}

	evicted := map[int]bool{}
	lanesDone, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(77))
		for {
			select {
			case <-lanesDone:
				return
			default:
			}
			switch rng.Intn(3) {
			case 0:
				for _, e := range c.FailServer(rng.Intn(servers)) {
					if evicted[e.Session] {
						t.Errorf("session %d evicted twice", e.Session)
					}
					evicted[e.Session] = true
				}
			case 1:
				c.RestoreServer(rng.Intn(servers))
			default:
				mu.Lock()
				sid := -1
				if len(pool) > 0 {
					sid = pool[rng.Intn(len(pool))]
				}
				mu.Unlock()
				if to, ok := c.Migrate(sid); ok {
					c.mu.Lock()
					isDown := c.down[to]
					c.mu.Unlock()
					if isDown {
						t.Errorf("session %d migrated onto down server %d", sid, to)
					}
				}
			}
		}
	}()
	// A reader walks the fleet meanwhile: whatever instant Server answers
	// for, the server is within its cap and its sessions in game order.
	read := make(chan struct{})
	go func() {
		defer close(read)
		for s := 0; ; s = (s + 1) % servers {
			select {
			case <-lanesDone:
				return
			default:
			}
			rs := c.Server(s)
			if len(rs) > 3 {
				t.Errorf("Server(%d) read %d sessions past the cap: %+v", s, len(rs), rs)
			}
			for i, r := range rs {
				if i > 0 && r.Game < rs[i-1].Game {
					t.Errorf("Server(%d) out of slot order: %+v", s, rs)
				}
			}
		}
	}()
	wg.Wait()
	close(lanesDone)
	<-done
	<-read

	verifyInvariants(t, c)
	for sid := range admitted {
		_, live := c.Locate(sid)
		n := 0
		for _, b := range []bool{live, departed[sid], evicted[sid]} {
			if b {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("session %d: placed %v, departed %v, evicted %v — want exactly one", sid, live, departed[sid], evicted[sid])
		}
	}
	for sid := range evicted {
		if !admitted[sid] {
			t.Fatalf("crash evicted session %d that no lane admitted", sid)
		}
	}
	if st := c.Stats(); st.Removed != len(departed)+len(evicted) || st.Migrated == 0 || len(evicted) == 0 {
		t.Fatalf("removed %d vs %d departed + %d evicted; migrated %d", st.Removed, len(departed), len(evicted), st.Migrated)
	}
}
