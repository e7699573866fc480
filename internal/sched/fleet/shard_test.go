package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// indexRig drives a one-shard cluster of two-slot servers and reads the
// shard's open slice between operations. Greedy over synthScore spreads
// before it stacks and breaks ties on the lowest server id, so every case
// below knows which server each arrival lands on.
type indexRig struct {
	t *testing.T
	c *Cluster
}

func (r indexRig) place(game int) Placement {
	r.t.Helper()
	pl, ok := r.c.Place(game)
	if !ok {
		r.t.Fatalf("game %d rejected", game)
	}
	return pl
}

// open returns the states in the shard's open slice, in slice order: the
// order is what tells a swap-remove of the middle from one of the end.
// CheckInvariants quiesces the shard first, so the read is race-free.
func (r indexRig) open() [][]int {
	r.t.Helper()
	verifyInvariants(r.t, r.c)
	var out [][]int
	for _, g := range r.c.shards[0].open {
		out = append(out, append([]int{}, g.games...))
	}
	return out
}

func (r indexRig) wantOpen(want ...[]int) {
	r.t.Helper()
	if got := r.open(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
		r.t.Fatalf("open = %v, want %v", got, want)
	}
}

// scanned runs op and returns how many state groups its probes walked.
func (r indexRig) scanned(op func()) int {
	before := r.c.Stats().Scanned
	op()
	return r.c.Stats().Scanned - before
}

// TestOpenIndexEdges walks a shard through every edge where a state group
// enters or leaves the open slice. Each case ends on the same three checks:
// the slice holds exactly the wanted states, a probe walks exactly that many
// groups — one more would be a full group scanned, and a stale pointer to an
// emptied one would fail CheckInvariants or crash the probe — and answers
// ok:false exactly when there are none.
func TestOpenIndexEdges(t *testing.T) {
	empty := []int{}
	cases := []struct {
		name    string
		servers int
		run     func(r indexRig)
		want    [][]int
	}{
		{"initial empty group drained, then re-created by a remove", 2, func(r indexRig) {
			first := r.place(1)
			r.place(1)
			r.wantOpen([]int{1}) // [] lost its last member at position 0
			r.c.Remove(first.Session)
		}, [][]int{{1}, empty}},

		{"group fills to max", 2, func(r indexRig) {
			r.place(1)
			r.place(1)
			r.place(1) // server 0 is [1 1]: in the map, not in open
		}, [][]int{{1}}},

		{"last open group removed", 1, func(r indexRig) {
			r.place(1)
			r.place(1)
		}, nil},

		{"full group reopened by a remove", 1, func(r indexRig) {
			r.place(1)
			second := r.place(1)
			r.wantOpen()
			r.c.Remove(second.Session)
		}, [][]int{{1}}},

		{"swap-remove of a middle element, then of the last", 4, func(r indexRig) {
			r.place(1)
			mid := r.place(2)
			last := r.place(3)
			r.wantOpen(empty, []int{1}, []int{2}, []int{3})
			r.c.Remove(mid.Session)
			r.wantOpen(empty, []int{1}, []int{3})
			r.c.Remove(last.Session)
		}, [][]int{empty, {1}}},

		{"swap-remove of the first element", 3, func(r indexRig) {
			r.place(1)
			r.place(2)
			r.place(3) // drains [] at position 0: [2] takes its place, then [3] is new
		}, [][]int{{2}, {1}, {3}}},

		{"fail of a full group's only server, then unmask", 2, func(r indexRig) {
			r.place(1)
			r.place(1)
			r.place(1)
			if ev := r.c.FailServer(0); len(ev) != 2 {
				r.t.Fatalf("crash evicted %v, want server 0's two sessions", ev)
			}
			r.wantOpen([]int{1}) // [1 1] left the map; it was never open
			r.c.RestoreServer(0)
		}, [][]int{{1}, empty}},

		{"fail of the last open group's server, then unmask", 1, func(r indexRig) {
			r.place(1)
			r.c.FailServer(0)
			r.wantOpen()
			if n := r.scanned(func() {
				if pl, ok := r.c.Place(2); ok {
					r.t.Fatalf("placed on down server %d", pl.Server)
				}
			}); n != 0 {
				r.t.Fatalf("probe of a shard with nothing open scanned %d groups", n)
			}
			r.c.RestoreServer(0)
		}, [][]int{empty}},

		{"migrate masks the session's own group out of the probe", 2, func(r indexRig) {
			pl := r.place(1)
			r.wantOpen(empty, []int{1})
			n := r.scanned(func() {
				if to, ok := r.c.Migrate(pl.Session); !ok || to != 1 {
					r.t.Fatalf("Migrate = (%d, %v), want server 1", to, ok)
				}
			})
			if n != 1 {
				r.t.Fatalf("Migrate's probe scanned %d groups, want only []", n)
			}
			// The move books server 1 first, draining [], then frees server 0.
		}, [][]int{{1}, empty}},

		{"migrate whose mask empties the index", 2, func(r indexRig) {
			r.place(1)
			alone := r.place(1)
			r.place(1) // server 0 full, server 1 holds the only open state
			n := r.scanned(func() {
				if to, ok := r.c.Migrate(alone.Session); ok {
					r.t.Fatalf("Migrate moved to server %d with no other room", to)
				}
			})
			if n != 0 {
				r.t.Fatalf("Migrate's probe scanned %d groups behind the mask", n)
			}
		}, [][]int{{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{NumServers: tc.servers, ShardCount: 1, MaxPerServer: 2, K: 1, Scorer: ScorerFunc(synthScore)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			r := indexRig{t, c}
			tc.run(r)
			r.wantOpen(tc.want...)
			var ok bool
			if n := r.scanned(func() { _, ok = c.Place(4) }); n != len(tc.want) || ok != (n > 0) {
				t.Fatalf("closing probe scanned %d groups, ok %v; %d are open", n, ok, len(tc.want))
			}
			verifyInvariants(t, c)
		})
	}
}

// TestRowRecycledMidProbe: a memo with fewer rows than the shard has open
// groups evicts inside every batched probe, so the row a group read from can
// be recycled for another state before the probe files the scores that group
// was waiting for. Filing them without checking the row's key puts one
// state's score under another's; filing them in an evicted row breaks the
// memo's count. Caps of one and two scores hold one and two rows of base
// scores only; 44, 55 and 66 hold four to six rows wide enough for all ten
// games. Every decision of every 16-game batch must equal the flat oracle's,
// and every memoized score the scorer's (verifyInvariants).
func TestRowRecycledMidProbe(t *testing.T) {
	const servers, perServer = 128, 3
	for _, cacheCap := range []int{1, 2, 44, 55, 66} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", cacheCap, seed), func(t *testing.T) {
				c, err := New(Config{NumServers: servers, MaxPerServer: perServer,
					Scorer: ScorerFunc(synthScore), CacheCap: cacheCap})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				flat := flatGreedy(synthScore, perServer)
				m := newMirror(servers, perServer)
				rng := rand.New(rand.NewSource(seed))
				games := make([]int, 16)
				var res []BatchResult
				mostOpen := 0
				for step := 0; step < 150; step++ {
					for len(m.active) > servers*perServer-len(games)/2 || len(m.active) > 0 && rng.Intn(3) == 0 {
						sid := m.active[rng.Intn(len(m.active))]
						if !c.Remove(sid) {
							t.Fatalf("step %d: session %d vanished", step, sid)
						}
						m.leave(sid)
					}
					for i := range games {
						games[i] = rng.Intn(10)
					}
					open := map[string]bool{}
					for _, occ := range m.contents {
						if len(occ) < perServer {
							state := slices.Clone(occ)
							slices.Sort(state)
							open[fmt.Sprint(state)] = true
						}
					}
					mostOpen = max(mostOpen, len(open))
					res = c.PlaceBatch(games, res[:0])
					for i, g := range games {
						want, wantOK := flat.Place(m.view(-1), g)
						if got := res[i]; got.OK != wantOK || (got.OK && got.Server != want) {
							t.Fatalf("step %d: batch arrival %d (game %d) = (%d, %v), flat (%d, %v)", step, i, g, got.Server, got.OK, want, wantOK)
						}
						if res[i].OK {
							m.join(res[i].Session, res[i].Server, g)
						}
					}
					verifyInvariants(t, c)
				}
				if mostOpen <= 5 {
					t.Fatalf("at most %d open groups: the memo never ran short of rows", mostOpen)
				}
			})
		}
	}
}

// BenchmarkShardProbeWarm times one warm batched probe of a churn-sized
// shard: 128 servers of four slots, ~95% full of games drawn from 100, asked
// for a batch of 16 games whose every score is already memoized, so the
// probe is pure memo reads and the reduce. It drives the shard's methods
// directly, with no dispatcher goroutine, to leave the hand-off out.
func BenchmarkShardProbeWarm(b *testing.B) {
	const servers, perServer, games = 128, 4, 100
	sh := newShard(0, 0, servers, perServer, ModeGreedy, ScorerFunc(synthScore), 0)
	rng := rand.New(rand.NewSource(49))
	for sid := 0; sid < servers*perServer*95/100; sid++ {
		local := rng.Intn(servers)
		for len(sh.contents[local]) == perServer {
			local = rng.Intn(servers)
		}
		sh.commit(rng.Intn(games), sid, local)
	}
	batch := make([]int, 16)
	for i := range batch {
		batch[i] = rng.Intn(games)
	}
	out := sh.scoreBatch(batch, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = sh.scoreBatch(batch, 0, out)
	}
	b.StopTimer()
	if out[0].misses != 0 {
		b.Fatalf("warm probe missed %d times", out[0].misses)
	}
}
