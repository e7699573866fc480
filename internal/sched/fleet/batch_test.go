package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gaugur/internal/core"
	"gaugur/internal/profile"
	"gaugur/internal/sim"
)

// TestPlaceBatchMatchesSequential is the golden determinism contract for
// the coalescing admission path: the same arrival stream placed through
// PlaceBatch in arbitrary chunk sizes must produce byte-identical
// placements to one-at-a-time Place calls, including under interleaved
// departures. Only probe-side counters (cache misses, scanned states) are
// allowed to differ.
func TestPlaceBatchMatchesSequential(t *testing.T) {
	mk := func() *Cluster {
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
		return c
	}
	seq, bat := mk(), mk()
	defer seq.Close()
	defer bat.Close()

	rng := rand.New(rand.NewSource(41))
	var active []int
	var results []BatchResult
	for step := 0; step < 250; step++ {
		if len(active) > 0 && rng.Intn(4) == 0 {
			j := rng.Intn(len(active))
			sid := active[j]
			active = append(active[:j], active[j+1:]...)
			if !seq.Remove(sid) || !bat.Remove(sid) {
				t.Fatalf("step %d: session %d missing from a cluster", step, sid)
			}
			continue
		}
		games := make([]int, 1+rng.Intn(16))
		for i := range games {
			games[i] = rng.Intn(8)
		}
		results = bat.PlaceBatch(games, results[:0])
		if len(results) != len(games) {
			t.Fatalf("step %d: %d results for %d arrivals", step, len(results), len(games))
		}
		for i, g := range games {
			pl, ok := seq.Place(g)
			if ok != results[i].OK {
				t.Fatalf("step %d arrival %d (game %d): sequential ok=%v, batched ok=%v",
					step, i, g, ok, results[i].OK)
			}
			if !ok {
				continue
			}
			if pl != results[i].Placement {
				t.Fatalf("step %d arrival %d (game %d): sequential %+v, batched %+v",
					step, i, g, pl, results[i].Placement)
			}
			active = append(active, pl.Session)
		}
	}

	verifyInvariants(t, seq)
	verifyInvariants(t, bat)
	if a, b := seq.Snapshot(), bat.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("final snapshots diverged:\nsequential: %v\nbatched:    %v", a, b)
	}
	ss, bs := seq.Stats(), bat.Stats()
	if ss.Placed != bs.Placed || ss.Rejected != bs.Rejected || ss.Removed != bs.Removed ||
		ss.Active != bs.Active || ss.PeakActive != bs.PeakActive ||
		ss.Escapes != bs.Escapes {
		t.Fatalf("decision stats diverged:\nsequential: %+v\nbatched:    %+v", ss, bs)
	}
	if ss.Placed == 0 {
		t.Fatal("degenerate run: golden test placed nothing")
	}
}

// TestBatchOfOneEqualsPlace: Place is a batch of one, so the two spellings
// agree on every placement and every counter.
func TestBatchOfOneEqualsPlace(t *testing.T) {
	mk := func() *Cluster {
		c, err := New(Config{
			NumServers: 32, ShardCount: 4, MaxPerServer: 2, K: 2, Seed: 9,
			Scorer: ScorerFunc(synthScore),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	one, bat := mk(), mk()
	defer one.Close()
	defer bat.Close()
	rng := rand.New(rand.NewSource(8))
	for step := 0; step < 200; step++ {
		g := rng.Intn(8)
		pl, ok := one.Place(g)
		r := bat.PlaceBatch([]int{g}, nil)[0]
		if ok != r.OK || pl != r.Placement {
			t.Fatalf("step %d game %d: Place (%+v,%v), PlaceBatch (%+v,%v)", step, g, pl, ok, r.Placement, r.OK)
		}
		if ok && rng.Intn(3) == 0 && (!one.Remove(pl.Session) || !bat.Remove(pl.Session)) {
			t.Fatalf("step %d: session %d missing from a cluster", step, pl.Session)
		}
	}
	if so, sb := one.Stats(), bat.Stats(); so != sb {
		t.Fatalf("stats diverged:\nPlace:      %+v\nPlaceBatch: %+v", so, sb)
	}
}

// TestPlaceBatchLeastLoaded pins the interference-blind mode to the same
// batched-equals-sequential contract (it skips scoring entirely, so the
// dirty-tracking shortcuts must hold there too).
func TestPlaceBatchLeastLoaded(t *testing.T) {
	mk := func() *Cluster {
		c, err := New(Config{
			NumServers:   16,
			ShardCount:   4,
			MaxPerServer: 2,
			K:            2,
			Seed:         5,
			Mode:         ModeLeastLoaded,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	seq, bat := mk(), mk()
	defer seq.Close()
	defer bat.Close()

	rng := rand.New(rand.NewSource(17))
	var results []BatchResult
	for step := 0; step < 40; step++ {
		games := make([]int, 1+rng.Intn(8))
		for i := range games {
			games[i] = rng.Intn(6)
		}
		results = bat.PlaceBatch(games, results[:0])
		for i, g := range games {
			pl, ok := seq.Place(g)
			if ok != results[i].OK || (ok && pl != results[i].Placement) {
				t.Fatalf("step %d arrival %d: sequential (%+v,%v), batched (%+v,%v)",
					step, i, pl, ok, results[i].Placement, results[i].OK)
			}
		}
	}
	verifyInvariants(t, seq)
	verifyInvariants(t, bat)
}

// TestPlaceBatchSaturation: a batch larger than the fleet's remaining
// capacity admits exactly the head that fits and rejects the tail, with
// bookkeeping intact. Also covers the degenerate empty batch.
func TestPlaceBatchSaturation(t *testing.T) {
	c, err := New(Config{
		NumServers:   4,
		ShardCount:   2,
		MaxPerServer: 2,
		K:            2,
		Seed:         1,
		Scorer:       ScorerFunc(synthScore),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := c.PlaceBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}

	games := make([]int, 12) // capacity is 4*2 = 8
	for i := range games {
		games[i] = i % 5
	}
	res := c.PlaceBatch(games, nil)
	admitted := 0
	for i, r := range res {
		if r.OK {
			admitted++
		} else if i < 8 {
			t.Fatalf("arrival %d rejected before capacity ran out", i)
		}
	}
	if admitted != 8 {
		t.Fatalf("admitted %d of 12, want 8", admitted)
	}
	st := c.Stats()
	if st.Placed != 8 || st.Rejected != 4 || st.Active != 8 {
		t.Fatalf("stats after saturated batch: %+v", st)
	}
	verifyInvariants(t, c)
}

// TestScorerFuncGrowsDst pins the BatchScorer contract at the interface
// level: when dst's capacity is short the scorer must grow and return it,
// never truncate.
func TestScorerFuncGrowsDst(t *testing.T) {
	states := [][]int{{1}, {2}, {1, 2}, {3}, {0, 4}}
	dst := make([]float64, 0, 2) // too small: forces growth
	dst = ScorerFunc(synthScore).ScoreStates(states, dst)
	if len(dst) != len(states) {
		t.Fatalf("got %d scores for %d states", len(dst), len(states))
	}
	for i, s := range states {
		if want := synthScore(s); dst[i] != want {
			t.Fatalf("state %d: got %v, want %v", i, dst[i], want)
		}
	}
}

// TestStatefulScorerReplays: a scorer that is not a pure function of the
// state — its answer drifts with the number of queries it has served, like a
// breaker counting calls — must still see the same query sequence, and so
// make the same placements, on every run. Shards hand over a probe's
// uncached states in Go map order; ScorerFunc scoring them in canonical
// order is what makes the sequence a function of the call sequence alone.
func TestStatefulScorerReplays(t *testing.T) {
	run := func() (queries [][]int, placed []Placement) {
		calls := 0
		c, err := New(Config{NumServers: 40, MaxPerServer: 4, Scorer: ScorerFunc(func(games []int) float64 {
			calls++
			queries = append(queries, append([]int(nil), games...))
			return synthScore(games) - 1e-3*float64(calls%7)
		})})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(5))
		var active []int
		for i := 0; i < 400; i++ {
			if len(active) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(active))
				c.Remove(active[j])
				active = append(active[:j], active[j+1:]...)
				continue
			}
			if pl, ok := c.Place(rng.Intn(12)); ok {
				placed = append(placed, pl)
				active = append(active, pl.Session)
			}
		}
		verifyInvariants(t, c)
		return queries, placed
	}
	q1, p1 := run()
	for i := 0; i < 3; i++ {
		q2, p2 := run()
		if !reflect.DeepEqual(q1, q2) {
			t.Fatalf("run %d: the scorer saw a different query sequence (%d vs %d queries)", i, len(q1), len(q2))
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("run %d: a stateful scorer changed the placements", i)
		}
	}
	multi := 0
	for i := 1; i < len(q1); i++ {
		if len(q1[i]) > 1 {
			multi++
		}
	}
	if multi < 50 {
		t.Fatalf("degenerate run: only %d multi-game states scored", multi)
	}
}

// scorerFixture trains a small GBRT/GBDT predictor and draws 37 random
// 1-3 game states over its catalog: more than two kernel chunks of member
// rows, and more states than any small dst capacity.
func scorerFixture(t *testing.T) (*core.Predictor, [][]int) {
	t.Helper()
	cat := sim.NewCatalog(42)
	srv := sim.NewServer(3)
	pf := &profile.Profiler{Server: srv, Repeats: 2}
	set, err := pf.ProfileCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewLab(srv, cat, set)
	if err != nil {
		t.Fatal(err)
	}
	colocs := core.RandomColocations(cat, core.ColocationPlan{Pairs: 20, Triples: 8}, 3)
	samples := lab.CollectSamples(colocs, 60, 10)
	p, err := core.Train(set, core.TrainConfig{
		Samples: samples, RMKind: core.GBRT, CMKind: core.GBDT, Seed: 1, EncoderK: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := make([][]int, 37)
	rng := rand.New(rand.NewSource(8))
	for i := range states {
		s := make([]int, 1+rng.Intn(3))
		for j := range s {
			s[j] = rng.Intn(cat.Len())
		}
		states[i] = s
	}
	return p, states
}

// TestPredictorScorerRealloc is the regression test for the silent
// truncation bug: predictorScorer used to copy(dst, res) after
// PredictTotalFPSBatch, so when the batch call reallocated (cap(dst) <
// len(states)) every score past cap(dst) was dropped. Forcing the realloc
// path must now yield all scores, bit-identical to single-state calls.
func TestPredictorScorerRealloc(t *testing.T) {
	p, states := scorerFixture(t)
	sc := NewPredictorScorer(p)

	for _, cap0 := range []int{0, 1, 5} { // all force the realloc path
		dst := sc.ScoreStates(states, make([]float64, 0, cap0))
		if len(dst) != len(states) {
			t.Fatalf("cap %d: got %d scores for %d states", cap0, len(dst), len(states))
		}
		for i, s := range states {
			coloc := make(core.Colocation, len(s))
			for j, g := range s {
				coloc[j] = core.Workload{GameID: g, Res: core.ReferenceResolution}
			}
			want := p.PredictTotalFPS(coloc)
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("cap %d state %d (%v): batch %v != single %v", cap0, i, s, dst[i], want)
			}
		}
	}
}

// TestPredictorScorerWarmAllocs pins core/batch.go's promise that "the
// steady-state path allocates nothing" on the call every shard probe makes:
// once the scorer's, the predictor's and the kernel's pooled buffers have
// grown to the batch, scoring it again allocates nothing at all.
func TestPredictorScorerWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector, so pooled paths allocate")
	}
	p, states := scorerFixture(t)
	sc := NewPredictorScorer(p)
	dst := sc.ScoreStates(states, nil)
	if n := testing.AllocsPerRun(50, func() { dst = sc.ScoreStates(states, dst[:0]) }); n != 0 {
		t.Fatalf("warm ScoreStates allocates %v times per call, want 0", n)
	}
}

// TestPlaceRemoveWarmAllocs pins the fleet's warm admit/leave path: once the
// score caches, the callers' reply buffers and the shards' recycled state
// groups have warmed up, a round of two placements and their two removals
// allocates nothing anywhere in the process — not on the balancer, not on a
// shard goroutine.
func TestPlaceRemoveWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins run without the race detector (make allocs), like TestPredictorScorerWarmAllocs")
	}
	c, err := New(Config{
		NumServers: 16, ShardCount: 4, MaxPerServer: 2, K: 2, Seed: 3,
		Scorer: ScorerFunc(synthScore),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	games := []int{1, 2}
	var res []BatchResult
	round := func() {
		res = c.PlaceBatch(games, res[:0])
		for _, r := range res {
			if !r.OK || !c.Remove(r.Session) {
				t.Fatalf("round lost a session: %+v", r)
			}
		}
	}
	for i := 0; i < 20; i++ { // every shard's cache sees every state
		round()
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a warm PlaceBatch+Remove round allocates %v times, want 0", n)
	}
	verifyInvariants(t, c)
}
