package fleet

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
)

// opReader hands a fuzz input out one byte at a time; an exhausted input
// reads as zeros, so every byte string decodes to some configuration and a
// (possibly empty) op schedule.
type opReader struct{ data []byte }

func (r *opReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// FuzzClusterOps decodes bytes into a cluster configuration (1-12 servers,
// 1-4 shards, 1-4 sessions per server, a score memo of one score, two, the
// default, or 44 — four rows once all ten games are known, fewer than a
// shard can have open groups — greedy or least-loaded) and an op schedule
// (Place, PlaceBatch of 1-16, Remove, Migrate, FailServer, RestoreServer,
// and a model generation bump), then holds every decision to oracle_test.go's
// flat policy run on a mirror of the fleet. Every shard is a candidate
// (K covers them all), so the only freedom the cluster has is the one the
// flat scan pins: best score, lowest server id on ties. After every op
// Server must read back the mirror for every server, and the run ends on
// CheckInvariants. The decisions' stamps are read from a step clock behind
// the tracer, the registry, or neither: with a clock every batch result
// has StartNS < EndNS and a CommitNS strictly between them iff it was
// placed, and without one every stamp is zero.
func FuzzClusterOps(f *testing.F) {
	rng := rand.New(rand.NewSource(46))
	f.Add([]byte{})
	for i := 0; i < 16; i++ {
		b := make([]byte, 8+rng.Intn(120))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data}
		servers := 1 + r.next()%12
		shards := 1 + r.next()%4
		max := 1 + r.next()%4
		cacheCap := []int{1, 2, 0, 44}[r.next()%4]
		mode := Mode(r.next() % 2)
		gen := uint64(1)
		cfg := Config{
			NumServers: servers, ShardCount: shards, MaxPerServer: max, K: 64,
			Scorer: ScorerFunc(synthScore), Mode: mode,
			CacheCap: cacheCap, Gen: func() uint64 { return gen },
		}
		switch r.next() % 3 { // K covers every shard: no seed draws a sample
		case 1:
			cfg.Metrics = obs.NewWithClock(stepClock())
		case 2:
			cfg.Tracer = trace.New(trace.Config{Clock: stepClock()})
		}
		clocked := cfg.Metrics != nil || cfg.Tracer != nil
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		flat := flatGreedy(synthScore, max)
		if mode == ModeLeastLoaded {
			flat = flatLeastLoaded(max)
		}
		m := newMirror(servers, max)
		var res []BatchResult
		for step := 0; len(r.data) > 0 && step < 256; step++ {
			switch op := r.next() % 9; {
			case op <= 1: // arrival
				game := r.next() % 10
				want, wantOK := flat.Place(m.view(-1), game)
				pl, ok := c.Place(game)
				if ok != wantOK || (ok && pl.Server != want) {
					t.Fatalf("step %d: Place(%d) = (%d, %v), flat (%d, %v)", step, game, pl.Server, ok, want, wantOK)
				}
				if ok {
					m.join(pl.Session, pl.Server, game)
				}
			case op == 2: // coalesced batch: decided one by one, in order
				games := make([]int, 1+r.next()%16)
				for i := range games {
					games[i] = r.next() % 10
				}
				res = c.PlaceBatch(games, res[:0])
				for i, g := range games {
					want, wantOK := flat.Place(m.view(-1), g)
					if got := res[i]; got.OK != wantOK || (got.OK && got.Server != want) {
						t.Fatalf("step %d: batch arrival %d (game %d) = (%d, %v), flat (%d, %v)", step, i, g, got.Server, got.OK, want, wantOK)
					}
					if tm := res[i].Timing; clocked && (tm.StartNS >= tm.EndNS ||
						(res[i].OK != (tm.StartNS < tm.CommitNS && tm.CommitNS < tm.EndNS))) ||
						!clocked && (tm.StartNS != 0 || tm.CommitNS != 0 || tm.EndNS != 0) {
						t.Fatalf("step %d: batch arrival %d (placed %v, clock %v) stamped %+v", step, i, res[i].OK, clocked, tm)
					}
					if res[i].OK {
						m.join(res[i].Session, res[i].Server, g)
					}
				}
			case op == 3 && len(m.active) > 0: // departure
				sid := m.active[r.next()%len(m.active)]
				if !c.Remove(sid) {
					t.Fatalf("step %d: session %d vanished", step, sid)
				}
				m.leave(sid)
			case op == 4 && len(m.active) > 0: // migration
				sid := m.active[r.next()%len(m.active)]
				p := m.where[sid]
				want, wantOK := flat.Place(m.view(p.server), p.game)
				got, ok := c.Migrate(sid)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("step %d: Migrate(%d) from %d = (%d, %v), flat (%d, %v)", step, sid, p.server, got, ok, want, wantOK)
				}
				if ok {
					m.leave(sid)
					m.join(sid, got, p.game)
				}
			case op == 5: // crash
				s := r.next() % servers
				got := c.FailServer(s)
				if m.down[s] {
					if got != nil {
						t.Fatalf("step %d: failing down server %d evicted %v", step, s, got)
					}
					break
				}
				if want := m.residents(s); !slices.Equal(got, want) {
					t.Fatalf("step %d: FailServer(%d) evicted %+v, mirror has %+v", step, s, got, want)
				}
				for _, e := range got {
					m.leave(e.Session)
				}
				m.down[s] = true
			case op == 6: // restore
				s := r.next() % servers
				c.RestoreServer(s)
				m.down[s] = false
			case op == 7: // model hot swap: every cached score goes stale
				gen++
			}
			for s := 0; s < servers; s++ {
				if got, want := c.Server(s), m.residents(s); !slices.Equal(got, want) {
					t.Fatalf("step %d: Server(%d) = %+v, mirror has %+v", step, s, got, want)
				}
			}
		}
		verifyInvariants(t, c)
	})
}

// mirror is the fleet as the flat oracle sees it: per-server game
// contents in join order, where every session is, and which servers are
// down.
type mirror struct {
	contents [][]int
	down     []bool
	blocked  []int // a full server's contents, for masking
	where    map[int]mirrored
	active   []int
	joins    int
}

type mirrored struct{ server, game, joined int }

func newMirror(servers, max int) *mirror {
	return &mirror{
		contents: make([][]int, servers),
		down:     make([]bool, servers),
		blocked:  make([]int, max),
		where:    map[int]mirrored{},
	}
}

// view is what the flat policy scores: down servers, and exclude (a
// migrating session's own server), masked as full.
func (m *mirror) view(exclude int) [][]int {
	v := make([][]int, len(m.contents))
	for s := range v {
		v[s] = m.contents[s]
		if m.down[s] || s == exclude {
			v[s] = m.blocked
		}
	}
	return v
}

func (m *mirror) join(sid, server, game int) {
	m.joins++
	m.where[sid] = mirrored{server, game, m.joins}
	m.contents[server] = append(m.contents[server], game)
	m.active = append(m.active, sid)
}

func (m *mirror) leave(sid int) {
	p := m.where[sid]
	delete(m.where, sid)
	cs := m.contents[p.server]
	j := slices.Index(cs, p.game)
	m.contents[p.server] = slices.Delete(cs, j, j+1)
	m.active = slices.DeleteFunc(m.active, func(a int) bool { return a == sid })
}

// residents lists server s's sessions in the cluster's slot order: by
// game, the latest to join first among equals.
func (m *mirror) residents(s int) []Resident {
	var rs []Resident
	for sid, p := range m.where {
		if p.server == s {
			rs = append(rs, Resident{Session: sid, Game: p.game})
		}
	}
	slices.SortFunc(rs, func(a, b Resident) int {
		return cmp.Or(cmp.Compare(a.Game, b.Game), cmp.Compare(m.where[b.Session].joined, m.where[a.Session].joined))
	})
	return rs
}
