package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"gaugur/internal/obs"
	"gaugur/internal/sched/fleet"
)

// testScore is a cheap pure scorer (same shape as the fleet package's
// test scorer): per-game solo FPS discounted by pairwise pressure.
func testScore(games []int) float64 {
	sorted := append([]int(nil), games...)
	sort.Ints(sorted)
	s := 0.0
	for _, g := range sorted {
		s += 120.0 / float64(1+g%7)
	}
	pairs := len(sorted) * (len(sorted) - 1) / 2
	return s * math.Pow(0.92, float64(pairs))
}

func testCluster(t testing.TB, servers, shards, max int, scorer fleet.BatchScorer) *fleet.Cluster {
	t.Helper()
	if scorer == nil {
		scorer = fleet.ScorerFunc(testScore)
	}
	c, err := fleet.New(fleet.Config{
		NumServers:   servers,
		ShardCount:   shards,
		MaxPerServer: max,
		K:            2,
		Seed:         3,
		Scorer:       scorer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { checkedClose(t, c) })
	return c
}

// profiledOnly is the shape `gaugur serve` runs with a trained model: the
// scorer, like core.Predictor, panics when handed a game outside its profile
// set (ids 0..9 here), and KnownGame is the only thing between a client and
// that panic — on a shard goroutine it takes the whole process down.
func profiledOnly(t testing.TB) PipelineConfig {
	known := func(game int) bool { return game >= 0 && game < 10 }
	scorer := fleet.ScorerFunc(func(games []int) float64 {
		for _, g := range games {
			if !known(g) {
				panic(fmt.Sprintf("scorer asked for unprofiled game %d", g))
			}
		}
		return testScore(games)
	})
	return PipelineConfig{Cluster: testCluster(t, 16, 4, 2, scorer), KnownGame: known}
}

// checkedClose is every serve test's last step: whatever the front end did
// to the cluster, its books must still balance.
func checkedClose(t testing.TB, c *fleet.Cluster) {
	if err := fleet.CheckInvariants(c); err != nil {
		t.Error(err)
	}
	c.Close()
}

// gatedScorer blocks every score call until the gate opens — how tests
// freeze the collector mid-dispatch to fill the queue deterministically.
// Each call signals entered (non-blocking) first, so tests can wait until
// the collector is provably stuck inside a dispatch.
func gatedScorer(entered chan struct{}, gate <-chan struct{}) fleet.BatchScorer {
	return fleet.ScorerFunc(func(games []int) float64 {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return testScore(games)
	})
}

func TestPipelineAdmitLeave(t *testing.T) {
	c := testCluster(t, 16, 4, 2, nil)
	p, err := NewPipeline(PipelineConfig{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var sids []int
	for i := 0; i < 10; i++ {
		pl, err := p.Admit(i % 5)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		sids = append(sids, pl.Session)
	}
	if st := p.Stats(); st.Placed != 10 || st.Active != 10 {
		t.Fatalf("after 10 admits: %+v", st)
	}
	for _, sid := range sids {
		if err := p.Leave(sid); err != nil {
			t.Fatalf("leave %d: %v", sid, err)
		}
	}
	if err := p.Leave(sids[0]); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("double leave: %v", err)
	}
	p.Close()
	if st := p.Stats(); st.Active != 0 || st.Removed != 10 {
		t.Fatalf("after drain: %+v", st)
	}
}

// TestBackpressureQueueFull: with the collector frozen mid-dispatch, the
// bounded queue fills and the next submission bounces with ErrQueueFull
// instead of blocking; once the gate opens every queued request completes.
func TestBackpressureQueueFull(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	c := testCluster(t, 32, 2, 4, gatedScorer(entered, gate))
	reg := obs.New()
	p, err := NewPipeline(PipelineConfig{
		Cluster: c, QueueCap: 4, BatchWindow: 1, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	results := make(chan error, 16)
	var wg sync.WaitGroup
	admit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Admit(1)
			results <- err
		}()
	}
	// One admit occupies the collector (frozen in the scorer gate)...
	admit()
	<-entered
	// ...then fill the queue behind it.
	queued := 1
	for queued < 1+p.cfg.QueueCap {
		admit()
		queued++
	}
	waitFor(t, func() bool { return p.QueueDepth() == p.cfg.QueueCap }, 5*time.Second)

	// The queue is full and the collector is stuck: this one must bounce.
	if _, err := p.Admit(2); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("admit on full queue: %v", err)
	}
	if got := p.met.rejectedQueue.Value(); got != 1 {
		t.Fatalf("rejectedQueue = %d, want 1", got)
	}

	close(gate)
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("queued admit failed after gate opened: %v", err)
		}
	}
	p.Close()
	if st := p.Stats(); st.Placed != queued {
		t.Fatalf("placed %d, want %d", st.Placed, queued)
	}
}

// TestGracefulDrain: Close refuses new work immediately but completes
// every already-queued request before returning.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	c := testCluster(t, 32, 2, 4, gatedScorer(entered, gate))
	p, err := NewPipeline(PipelineConfig{Cluster: c, QueueCap: 32, BatchWindow: 1})
	if err != nil {
		t.Fatal(err)
	}

	const inflight = 9
	results := make(chan error, inflight)
	submit := func(g int) {
		go func() {
			_, err := p.Admit(g)
			results <- err
		}()
	}
	// The first op freezes the collector in its dispatch; the other
	// eight sit in the queue.
	submit(0)
	<-entered
	for i := 1; i < inflight; i++ {
		submit(i % 3)
	}
	waitFor(t, func() bool { return p.QueueDepth() == inflight-1 }, 5*time.Second)

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	waitFor(t, p.Draining, 5*time.Second)

	if _, err := p.Admit(0); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit while draining: %v", err)
	}
	if err := p.Leave(0); !errors.Is(err, ErrDraining) {
		t.Fatalf("leave while draining: %v", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with requests still gated")
	case <-time.After(20 * time.Millisecond):
	}

	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after gate opened")
	}
	for i := 0; i < inflight; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight admit %d failed: %v", i, err)
		}
	}
	if st := p.Stats(); st.Placed != inflight {
		t.Fatalf("placed %d, want %d: drain dropped queued work", st.Placed, inflight)
	}
}

// TestBatchDeadlinePartial: with a latency deadline configured and fewer
// arrivals than the window, the timer fires and dispatches the partial
// batch — requests never wait for a 16th arrival that isn't coming.
func TestBatchDeadlinePartial(t *testing.T) {
	c := testCluster(t, 16, 2, 2, nil)
	reg := obs.New()
	p, err := NewPipeline(PipelineConfig{
		Cluster:     c,
		BatchWindow: 16,
		BatchDelay:  5 * time.Millisecond,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 3 // far short of the 16-wide window
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, err := p.Admit(g)
			errs <- err
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("partial batch never dispatched: deadline did not fire")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := p.met.admitted.Value(); got != n {
		t.Fatalf("admitted = %d, want %d", got, n)
	}
	if b := p.met.batchSize; b.Count() == 0 || b.Sum() != n {
		t.Fatalf("batch size histogram: count %d sum %v, want total %d arrivals", b.Count(), b.Sum(), n)
	}
}

// TestLeaveSkipsBatchDelay: a leave that opens a batch dispatches at once —
// leaves are removed one by one, so waiting for stragglers could only delay
// it — while an admit still waits out BatchDelay for company. Either way the
// queue's order holds: a leave queued ahead of an admit frees its slot
// first.
func TestLeaveSkipsBatchDelay(t *testing.T) {
	const delay = time.Second
	t.Run("lone admit waits, lone leave does not", func(t *testing.T) {
		p, err := NewPipeline(PipelineConfig{Cluster: testCluster(t, 16, 4, 2, nil), BatchDelay: delay})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		start := time.Now()
		pl, err := p.Admit(1)
		if err != nil {
			t.Fatal(err)
		}
		// A timer never fires early, so this side cannot flake.
		if d := time.Since(start); d < delay {
			t.Fatalf("a lone admit returned after %v, before its %v batch delay", d, delay)
		}
		start = time.Now()
		if err := p.Leave(pl.Session); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d >= 250*time.Millisecond {
			t.Fatalf("a lone leave on an idle lane took %v: it waited out the batch delay", d)
		}
	})

	t.Run("leave queued ahead of an admit frees its slot first", func(t *testing.T) {
		gate := make(chan struct{})
		entered := make(chan struct{}, 1)
		c := testCluster(t, 1, 1, 1, gatedScorer(entered, gate)) // one slot
		p, err := NewPipeline(PipelineConfig{Cluster: c, BatchDelay: delay})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		first := make(chan fleet.Placement, 1)
		go func() {
			pl, err := p.Admit(0)
			if err != nil {
				t.Errorf("first admit: %v", err)
			}
			first <- pl
		}()
		<-entered // the collector is frozen scoring the first admit
		// The first session gets id 0: queue its leave, then an admit that
		// only fits once the leave has run.
		left := make(chan error, 1)
		go func() { left <- p.Leave(0) }()
		waitFor(t, func() bool { return p.QueueDepth() == 1 }, 5*time.Second)
		second := make(chan error, 1)
		go func() {
			_, err := p.Admit(1)
			second <- err
		}()
		waitFor(t, func() bool { return p.QueueDepth() == 2 }, 5*time.Second)
		start := time.Now()
		close(gate)
		if pl := <-first; pl.Session != 0 {
			t.Fatalf("first session got id %d, want 0", pl.Session)
		}
		if err := <-left; err != nil {
			t.Fatalf("queued leave: %v", err)
		}
		if err := <-second; err != nil {
			t.Fatalf("admit queued behind the leave: %v", err)
		}
		// The leave opened that batch, so the admit behind it rode along
		// without waiting.
		if d := time.Since(start); d >= 250*time.Millisecond {
			t.Fatalf("the leave's batch took %v: it waited out the batch delay", d)
		}
	})
}

// TestPipelineCoalesces: many concurrent producers against a gated
// collector must land in one full-window dispatch once the gate opens.
func TestPipelineCoalesces(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	c := testCluster(t, 64, 4, 4, gatedScorer(entered, gate))
	reg := obs.New()
	p, err := NewPipeline(PipelineConfig{
		Cluster: c, BatchWindow: 16, QueueCap: 64, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 17 // one op held by the collector + a full window queued
	var wg sync.WaitGroup
	submit := func(g int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Admit(g % 6); err != nil {
				t.Errorf("admit: %v", err)
			}
		}()
	}
	// Freeze the collector on a singleton dispatch first, so the next 16
	// arrivals all queue up behind it...
	submit(0)
	<-entered
	for i := 1; i < n; i++ {
		submit(i)
	}
	waitFor(t, func() bool { return p.QueueDepth() == n-1 }, 5*time.Second)
	// ...and must coalesce into exactly one full-window batch.
	close(gate)
	wg.Wait()
	p.Close()

	if got := p.met.admitted.Value(); got != n {
		t.Fatalf("admitted = %d, want %d", got, n)
	}
	// The first dispatch holds 1 op (it was alone when drained); the
	// second must coalesce the remaining 16 into the full window.
	snap := p.met.batchSize
	if snap.Count() != 2 || snap.Sum() != n {
		t.Fatalf("batch sizes: %d dispatches totalling %v ops, want 2 and %d", snap.Count(), snap.Sum(), n)
	}
}

func waitFor(t *testing.T, cond func() bool, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
