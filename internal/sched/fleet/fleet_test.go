package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
)

// synthScore is a cheap, pure stand-in for the predictor: per-game solo
// FPS discounted by pairwise interference pressure. It sorts a copy before
// summing so equal multisets score BIT-identically regardless of member
// order — the flat dispatcher stores contents in arrival order while
// shards keep them sorted, and float summation order changes last bits.
func synthScore(games []int) float64 {
	sorted := append([]int(nil), games...)
	sort.Ints(sorted)
	s := 0.0
	for _, g := range sorted {
		s += 120.0 / float64(1+g%7)
	}
	pairs := len(sorted) * (len(sorted) - 1) / 2
	return s * math.Pow(0.92, float64(pairs))
}

// verifyInvariants fails the test on the first broken cluster invariant,
// then on the first memoized score that is not the scorer's.
func verifyInvariants(t *testing.T, c *Cluster) {
	t.Helper()
	if err := CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
	if err := checkMemoScores(c); err != nil {
		t.Fatal(err)
	}
}

// checkMemoScores re-scores every score a shard's memo can still serve —
// the live rows under the current generation tag — and compares each with
// the memo's, bit for bit, so a stale or cross-written score fails the test
// that made it. It needs a pure scorer, so it runs only when the cluster
// scores with synthScore, and only on shards that know few enough games to
// enumerate every state: a row's key names its state only through the
// multiset hash, so every multiset of the known games up to the server cap
// is hashed to find it.
func checkMemoScores(c *Cluster) error {
	if f, ok := c.cfg.Scorer.(ScorerFunc); !ok || reflect.ValueOf(f).Pointer() != reflect.ValueOf(synthScore).Pointer() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for si, sh := range c.shards {
		sh.reqs <- shardReq{op: opBarrier}
		<-sh.resp
		m := sh.memo
		games := make([]int, len(m.slots))
		for g, i := range m.slots {
			games[i] = g
		}
		if len(games) > 24 {
			continue
		}
		states := map[uint64][]int{}
		var walk func(from int, s []int)
		walk = func(from int, s []int) {
			states[multisetHash(s)+c.lastGenTag] = slices.Clone(s)
			for j := from; j < len(games) && len(s) < c.max; j++ {
				walk(j, append(s, games[j]))
			}
		}
		walk(0, nil)
		for _, r := range m.fifo[m.head:] {
			s, ok := states[r.key]
			if !ok {
				continue // an earlier generation's row, which no probe can reach
			}
			if !math.IsNaN(r.base) && !same(r.base, synthScore(s)) {
				return fmt.Errorf("shard %d: memo holds %v for state %v, which scores %v", si, r.base, s, synthScore(s))
			}
			for i, v := range r.cand {
				if want := synthScore(append(slices.Clone(s), games[i])); !math.IsNaN(v) && !same(v, want) {
					return fmt.Errorf("shard %d: memo holds %v for state %v plus game %d, which scores %v", si, v, s, games[i], want)
				}
			}
		}
	}
	return nil
}

// TestGoldenMatchesFlatGreedy: with one shard the fleet balancer must
// reproduce the flat greedy scan (oracle_test.go) placement sequence byte-identically
// across interleaved arrivals and departures — the acceptance criterion
// that pins the sharded plane to the validated single-loop dispatcher.
func TestGoldenMatchesFlatGreedy(t *testing.T) {
	const servers, max = 24, 3
	c, err := New(Config{
		NumServers:   servers,
		ShardCount:   1,
		MaxPerServer: max,
		K:            1,
		Scorer:       ScorerFunc(synthScore),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	flat := flatGreedy(synthScore, max)
	contents := make([][]int, servers)
	bySID := map[int]int{} // fleet session id -> game (mirror bookkeeping)
	active := []int{}

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 600; step++ {
		if len(active) > 0 && rng.Intn(3) == 0 {
			// Departure: remove the same session from both worlds.
			i := rng.Intn(len(active))
			sid := active[i]
			active = append(active[:i], active[i+1:]...)
			srv, ok := c.Locate(sid)
			if !ok || !c.Remove(sid) {
				t.Fatalf("step %d: session %d vanished", step, sid)
			}
			game := bySID[sid]
			for j, g := range contents[srv] {
				if g == game {
					contents[srv] = append(contents[srv][:j], contents[srv][j+1:]...)
					break
				}
			}
			continue
		}
		game := rng.Intn(10)
		wantSrv, wantOK := flat.Place(contents, game)
		pl, ok := c.Place(game)
		if ok != wantOK {
			t.Fatalf("step %d game %d: fleet ok=%v flat ok=%v", step, game, ok, wantOK)
		}
		if !ok {
			continue
		}
		if pl.Server != wantSrv {
			t.Fatalf("step %d game %d: fleet chose server %d, flat chose %d", step, game, pl.Server, wantSrv)
		}
		wantDelta := synthScore(append(append([]int{}, contents[wantSrv]...), game)) - synthScore(contents[wantSrv])
		if math.Float64bits(pl.Delta) != math.Float64bits(wantDelta) {
			t.Fatalf("step %d: delta %v, want %v", step, pl.Delta, wantDelta)
		}
		contents[wantSrv] = append(contents[wantSrv], game)
		bySID[pl.Session] = game
		active = append(active, pl.Session)
	}
	verifyInvariants(t, c)
	if c.stats.Placed == 0 || c.stats.Removed == 0 {
		t.Fatalf("degenerate run: %+v", c.stats)
	}
}

// TestShardCountInvariance: with full fan-out (K >= ShardCount) no
// randomness is consumed and the reduce is global, so the exact placement
// sequence must be identical at ANY shard count.
func TestShardCountInvariance(t *testing.T) {
	type step struct {
		server int
		delta  float64
		ok     bool
	}
	run := func(shards int) []step {
		c, err := New(Config{
			NumServers:   24,
			ShardCount:   shards,
			MaxPerServer: 3,
			K:            64, // full fan-out at every count under test
			Scorer:       ScorerFunc(synthScore),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(11))
		var out []step
		var active []int
		for i := 0; i < 400; i++ {
			if len(active) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(active))
				c.Remove(active[j])
				active = append(active[:j], active[j+1:]...)
				continue
			}
			pl, ok := c.Place(rng.Intn(10))
			out = append(out, step{server: pl.Server, delta: pl.Delta, ok: ok})
			if ok {
				active = append(active, pl.Session)
			}
		}
		verifyInvariants(t, c)
		return out
	}

	want := run(1)
	for _, shards := range []int{2, 4, 8} {
		got := run(shards)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d steps vs %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i].ok != want[i].ok || got[i].server != want[i].server ||
				math.Float64bits(got[i].delta) != math.Float64bits(want[i].delta) {
				t.Fatalf("shards=%d step %d: got %+v want %+v", shards, i, got[i], want[i])
			}
		}
	}
}

// TestEscapeHatch: when every sampled shard rejects, the balancer must
// full-scan before shedding load — a k=1 arrival stream against a nearly
// full fleet only places everything if the escape hatch works.
func TestEscapeHatch(t *testing.T) {
	c, err := New(Config{
		NumServers:   4,
		ShardCount:   4,
		MaxPerServer: 1,
		K:            1,
		Seed:         3,
		Scorer:       ScorerFunc(synthScore),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, ok := c.Place(i); !ok {
			t.Fatalf("placement %d rejected with capacity left (escape hatch broken)", i)
		}
	}
	if _, ok := c.Place(9); ok {
		t.Fatal("placed on a full fleet")
	}
	st := c.Stats()
	if st.Escapes == 0 {
		t.Fatalf("k=1 fill never exercised the escape hatch: %+v", st)
	}
	if st.Rejected != 1 || st.Placed != 4 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	verifyInvariants(t, c)
}

// TestDeterministicReplay: two identical runs (same config, same op
// sequence, sampling on) must agree exactly, counters included.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]Placement, Stats) {
		c, err := New(Config{
			NumServers:   32,
			ShardCount:   4,
			MaxPerServer: 2,
			K:            2,
			Seed:         9,
			Scorer:       ScorerFunc(synthScore),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(33))
		var out []Placement
		var active []int
		for i := 0; i < 400; i++ {
			if len(active) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(active))
				c.Remove(active[j])
				active = append(active[:j], active[j+1:]...)
				continue
			}
			if pl, ok := c.Place(rng.Intn(8)); ok {
				out = append(out, pl)
				active = append(active, pl.Session)
			}
		}
		return out, c.Stats()
	}
	a, sa := run()
	b, sb := run()
	if len(a) != len(b) || sa != sb {
		t.Fatalf("replay diverged: %d/%d placements, stats %+v vs %+v", len(a), len(b), sa, sb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	// One caller has nobody to lose a race to, escapes and rejects included.
	if sa.CommitConflicts != 0 || sa.LockedProbes != 0 || sa.Escapes == 0 || sa.Rejected == 0 {
		t.Fatalf("single-caller run: %+v", sa)
	}
}

// TestFullCacheDeterminism: a score memo far smaller than the set of live
// states evicts on every probe. Which entries it evicts used to follow map
// iteration order, and a probe could evict a value its own reduce still
// needed and silently skip that server group. Two tiny-memo clusters fed
// one stream must agree with each other on everything, and with a cluster
// whose memo never evicts on every placement. CacheCap counts scores: the
// tiny memo's 8 hold up to eight rows of base scores, and candidates only
// while the shard knows fewer than eight games.
//
// The stream holds the 120 slots at least 90% full once they have filled, so
// it is also where "a change to the probe moved only time" is pinned: every
// placement (as a digest) and the probe-side counters are asserted against
// the values this test produced before the shard's open-group slice replaced
// the walk over the groups map.
func TestFullCacheDeterminism(t *testing.T) {
	run := func(cacheCap int) ([]Placement, Stats) {
		c, err := New(Config{
			NumServers:   40,
			ShardCount:   2,
			MaxPerServer: 3,
			K:            2,
			Seed:         4,
			Scorer:       ScorerFunc(synthScore),
			CacheCap:     cacheCap,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(52))
		var out []Placement
		var active []int
		for i := 0; i < 600; i++ {
			if len(active) >= 110 && rng.Intn(2) == 0 {
				for n := 0; n < 2; n++ {
					j := rng.Intn(len(active))
					c.Remove(active[j])
					active = append(active[:j], active[j+1:]...)
				}
				continue
			}
			games := make([]int, 1+rng.Intn(3))
			for k := range games {
				games[k] = rng.Intn(20)
			}
			for _, r := range c.PlaceBatch(games, nil) {
				if r.OK {
					out = append(out, r.Placement)
					active = append(active, r.Session)
				}
			}
		}
		verifyInvariants(t, c)
		return out, c.Stats()
	}
	digest := func(ps []Placement) uint64 {
		h := fnv.New64a()
		for _, p := range ps {
			binary.Write(h, binary.LittleEndian,
				[]uint64{uint64(p.Session), uint64(p.Server), uint64(p.Shard), math.Float64bits(p.Delta), p.Seq})
		}
		return h.Sum64()
	}
	a, sa := run(8)
	b, sb := run(8)
	big, sbig := run(1 << 20)
	if sa != sb {
		t.Fatalf("tiny-cache replays disagree on stats:\n%+v\n%+v", sa, sb)
	}
	if sa.CacheMisses <= sbig.CacheMisses {
		t.Fatalf("tiny cache never overflowed: %d misses vs %d with an unbounded one", sa.CacheMisses, sbig.CacheMisses)
	}
	if len(a) != len(b) || len(a) != len(big) {
		t.Fatalf("placement counts differ: %d, %d, unbounded %d", len(a), len(b), len(big))
	}
	for i := range a {
		if a[i] != b[i] || a[i] != big[i] {
			t.Fatalf("placement %d: tiny caches %+v and %+v, unbounded %+v", i, a[i], b[i], big[i])
		}
	}
	if len(a) != 623 || digest(a) != 0xeffd56e3f3f8da71 {
		t.Errorf("placements moved: %d with digest %#x", len(a), digest(a))
	}
	for _, pin := range []struct {
		name                         string
		got                          Stats
		scanned, cacheMisses, probes int
	}{
		{"tiny cache", sa, 7950, 12127, 1720},
		{"unbounded cache", sbig, 7950, 2069, 1720},
	} {
		if pin.got.Scanned != pin.scanned || pin.got.CacheMisses != pin.cacheMisses || pin.got.ScoreProbes != pin.probes {
			t.Errorf("%s: scanned %d, cache misses %d, score probes %d; pinned %d, %d, %d", pin.name,
				pin.got.Scanned, pin.got.CacheMisses, pin.got.ScoreProbes, pin.scanned, pin.cacheMisses, pin.probes)
		}
	}
}

// TestModeLeastLoaded: the interference-blind mode must track the flat
// least-loaded scan (oracle_test.go) at shard count 1.
func TestModeLeastLoaded(t *testing.T) {
	const servers, max = 12, 2
	c, err := New(Config{
		NumServers:   servers,
		ShardCount:   1,
		MaxPerServer: max,
		Mode:         ModeLeastLoaded,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	flat := flatLeastLoaded(max)
	contents := make([][]int, servers)
	for i := 0; i < servers*max; i++ {
		want, wantOK := flat.Place(contents, i%4)
		pl, ok := c.Place(i % 4)
		if !ok || !wantOK || pl.Server != want {
			t.Fatalf("arrival %d: fleet %d/%v, flat %d/%v", i, pl.Server, ok, want, wantOK)
		}
		contents[want] = append(contents[want], i%4)
	}
	if _, ok := c.Place(0); ok {
		t.Fatal("placed past capacity")
	}
}

// TestGenerationInvalidatesCaches: bumping the generation must re-score
// states rather than serving stale memos — across every shard.
func TestGenerationInvalidatesCaches(t *testing.T) {
	gen := uint64(1)
	var calls atomic.Int64 // shards probe (and score) concurrently
	c, err := New(Config{
		NumServers:   8,
		ShardCount:   2,
		MaxPerServer: 2,
		K:            64,
		Scorer: ScorerFunc(func(games []int) float64 {
			calls.Add(1)
			return synthScore(games)
		}),
		Gen: func() uint64 { return gen },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Place(1)
	c.Place(1)
	warm := calls.Load()
	c.Place(1) // same states, warm caches: minimal new scorer calls
	if calls.Load() > warm+2 {
		t.Fatalf("cache not effective: %d calls after warmup %d", calls.Load(), warm)
	}
	before := calls.Load()
	gen = 2
	c.Place(1)
	if calls.Load() == before {
		t.Fatal("generation bump served stale cached scores")
	}
}

// TestObservability: counters, per-shard gauges, and the placement traces a
// caller hangs from the decisions' stamps must reflect a small run exactly.
func TestObservability(t *testing.T) {
	reg := obs.New()
	tr := trace.New(trace.Config{Seed: 1})
	c, err := New(Config{
		NumServers:   8,
		ShardCount:   2,
		MaxPerServer: 2,
		K:            2,
		Scorer:       ScorerFunc(synthScore),
		Metrics:      reg,
		Tracer:       tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var sids []int
	var res []BatchResult
	var root trace.Root
	for i := 0; i < 6; i++ {
		tr.StartRoot(&root, 0, "placement")
		res = c.PlaceBatch([]int{i % 3}, res[:0])
		if !res[0].OK {
			t.Fatalf("placement %d rejected", i)
		}
		res[0].Trace(&root, 1)
		root.End(trace.Int("game", i%3))
		sids = append(sids, res[0].Session)
	}
	c.Remove(sids[0])

	snap := reg.Snapshot()
	if got := snap.Counters["gaugur_fleet_placements_total"]; got != 6 {
		t.Fatalf("placements counter = %d, want 6", got)
	}
	sum := 0.0
	for i := 0; i < 2; i++ {
		sum += c.met.shardSessions[i].Value()
	}
	if sum != 5 {
		t.Fatalf("shard gauges sum to %v, want 5", sum)
	}
	if c.met.active.Value() != 5 {
		t.Fatalf("active gauge = %v, want 5", c.met.active.Value())
	}

	if got := snap.Histograms["gaugur_fleet_decision_seconds"].Count; got != 6 {
		t.Fatalf("decision histogram holds %d observations, want 6", got)
	}
	traces := tr.Store().Recent(16)
	placements := 0
	for _, trc := range traces {
		if trc.Name != "placement" {
			t.Fatalf("the balancer opened a %q trace of its own", trc.Name)
		}
		placements++
		spans := map[string]int{}
		for _, sp := range trc.Spans {
			spans[sp.Name]++
			want := map[string]string{"score": "shards", "commit": "shard"}[sp.Name]
			if want != "" && !slices.ContainsFunc(sp.Attrs, func(a trace.Attr) bool { return a.Key == want }) {
				t.Fatalf("%s span without a %s attr: %+v", sp.Name, want, sp)
			}
		}
		if spans["place-batch"] != 1 || spans["score"] != 1 || spans["commit"] != 1 {
			t.Fatalf("placement trace is not place-batch -> score/commit: %+v", trc)
		}
	}
	if placements != 6 {
		t.Fatalf("%d placement traces, want 6", placements)
	}
}

// TestNewValidation covers the config error paths.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("accepted zero servers")
	}
	if _, err := New(Config{NumServers: 4}); err == nil {
		t.Fatal("accepted greedy mode without a scorer")
	}
	c, err := New(Config{NumServers: 2, ShardCount: 16, MaxPerServer: 1, Mode: ModeLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.nShards != 2 {
		t.Fatalf("shard count not clamped to fleet size: %d", c.nShards)
	}
}

// TestGenTagRetiresStaleScoresOnSwap is the regression the generation tag
// guards: shards memoize scores by occupancy hash, so a model hot swap that
// does NOT bump the generation keeps serving the old model's scores
// forever. The tag folds the swap counter into every cache key, retiring
// the whole memo at once.
func TestGenTagRetiresStaleScoresOnSwap(t *testing.T) {
	var gen atomic.Uint64
	// bonus decides whether game 3 prefers game 1's server — the stand-in
	// for "which model is serving". 1 and 2 clash, so they sit apart.
	var bonus atomic.Int64
	bonus.Store(10)
	score := func(g []int) float64 {
		s := 0.0
		has := map[int]bool{}
		for _, id := range g {
			s += float64(id)
			has[id] = true
		}
		if has[1] && has[3] {
			s += float64(bonus.Load())
		}
		if has[1] && has[2] {
			s -= 100
		}
		return s
	}
	c, err := New(Config{NumServers: 2, MaxPerServer: 4, Scorer: ScorerFunc(score), Gen: gen.Load})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Place(1)
	if pl, _ := c.Place(2); pl.Server != 1 {
		t.Fatalf("setup: game 2 on server %d, want 1", pl.Server)
	}
	probe := func() int {
		pl, ok := c.Place(3)
		if !ok || !c.Remove(pl.Session) {
			t.Fatalf("probe placement failed: %+v %v", pl, ok)
		}
		return pl.Server
	}
	// Model A prefers colocating 3 with 1 → server 0.
	if s := probe(); s != 0 {
		t.Fatalf("warm-up placement on server %d, want 0", s)
	}
	// The model changes under the hood but the generation does not: the
	// stale cached scores keep winning. This is the failure mode the tag
	// exists to close — assert it so the next check is meaningful.
	bonus.Store(-10)
	if s := probe(); s != 0 {
		t.Fatalf("cache should still serve stale scores without a generation bump, got server %d", s)
	}
	// A hot swap bumps the generation; the very next placement must see
	// model B's preference → server 1.
	gen.Add(1)
	if s := probe(); s != 1 {
		t.Fatalf("placement after generation bump on server %d, want 1", s)
	}
	// Rolling back is a NEW generation, not a return to the old tag: the
	// shard re-scores rather than resurrecting generation-0 entries that
	// could have been evicted meanwhile.
	bonus.Store(10)
	gen.Add(1)
	if s := probe(); s != 0 {
		t.Fatalf("placement after rollback bump on server %d, want 0", s)
	}
}

func TestInsertSorted(t *testing.T) {
	got := insertSorted([]int{1, 3, 5}, 4)
	want := []int{1, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("insertSorted = %v", got)
		}
	}
	if got := insertSorted(nil, 7); len(got) != 1 || got[0] != 7 {
		t.Errorf("insertSorted into empty = %v", got)
	}
}
