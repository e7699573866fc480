package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gaugur/internal/sched/fleet"
)

// laneStack builds a pipeline with the given lane count over a fresh
// cluster.
func laneStack(t *testing.T, servers, shards, max, lanes, queueCap int) (*fleet.Cluster, *Pipeline) {
	t.Helper()
	c := testCluster(t, servers, shards, max, nil)
	p, err := NewPipeline(PipelineConfig{Cluster: c, Lanes: lanes, BatchWindow: 8, QueueCap: queueCap})
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

// TestLaneCountInvariance: with ample capacity the admitted set is the
// whole arrival set and fleet occupancy is conserved, at every lane
// count; under saturation the admitted/rejected COUNTS are exact (any
// free server can host any game, so admit-or-reject depends only on free
// slots at the decision's linearization point, not on lane interleaving).
func TestLaneCountInvariance(t *testing.T) {
	const arrivals = 96
	type outcome struct {
		admitted, rejected int
		games              map[int]int // admitted game -> count
	}
	runAt := func(lanes, servers, max int) outcome {
		c, p := laneStack(t, servers, 4, max, lanes, 256)
		var mu sync.Mutex
		out := outcome{games: map[int]int{}}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < arrivals/8; i++ {
					game := (w*13 + i) % 10
					_, err := p.Admit(game)
					mu.Lock()
					if err == nil {
						out.admitted++
						out.games[game]++
					} else if errors.Is(err, ErrNoCapacity) {
						out.rejected++
					} else {
						t.Errorf("lanes=%d: unexpected admit error %v", lanes, err)
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		p.Close()
		if err := fleet.CheckInvariants(c); err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		st := c.Stats()
		if st.Active != out.admitted {
			t.Fatalf("lanes=%d: occupancy not conserved: fleet active %d, admitted %d", lanes, st.Active, out.admitted)
		}
		occ := 0
		for _, contents := range c.Snapshot() {
			if len(contents) > max {
				t.Fatalf("lanes=%d: server over capacity: %d > %d", lanes, len(contents), max)
			}
			occ += len(contents)
		}
		if occ != out.admitted {
			t.Fatalf("lanes=%d: snapshot occupancy %d, admitted %d", lanes, occ, out.admitted)
		}
		return out
	}

	// Ample capacity: every arrival admits, so the admitted multiset of
	// games is identical across lane counts.
	var ref outcome
	for i, lanes := range []int{1, 2, 4} {
		got := runAt(lanes, 64, 4)
		if got.admitted != arrivals || got.rejected != 0 {
			t.Fatalf("lanes=%d: admitted %d rejected %d, want %d/0", lanes, got.admitted, got.rejected, arrivals)
		}
		if i == 0 {
			ref = got
			continue
		}
		for g, n := range ref.games {
			if got.games[g] != n {
				t.Fatalf("lanes=%d: admitted multiset differs at game %d: %d vs %d", lanes, g, got.games[g], n)
			}
		}
	}

	// Saturation: 24 slots for 96 arrivals — exactly 24 admit, 72 reject,
	// regardless of how the lanes interleave.
	for _, lanes := range []int{1, 2, 4} {
		got := runAt(lanes, 8, 3)
		if got.admitted != 24 || got.rejected != 72 {
			t.Fatalf("lanes=%d saturated: admitted %d rejected %d, want 24/72", lanes, got.admitted, got.rejected)
		}
	}
}

// TestMultiLaneDrain: Close must flush every lane's backlog before the
// cluster goes quiescent — ops enqueued on all lanes while the collectors
// are frozen inside a dispatch still complete, and the final stats see
// them all.
func TestMultiLaneDrain(t *testing.T) {
	const lanes = 4
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	c := testCluster(t, 64, 4, 4, gatedScorer(entered, gate))
	p, err := NewPipeline(PipelineConfig{Cluster: c, Lanes: lanes, BatchWindow: 4, QueueCap: 4 * lanes})
	if err != nil {
		t.Fatal(err)
	}

	// Freeze one lane's collector inside a dispatch, then pile admits onto
	// every lane (games 0..N hash across lanes).
	var wg sync.WaitGroup
	results := make(chan error, 32)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := p.Admit(0)
		results <- err
	}()
	<-entered // a collector is provably inside the scorer

	for g := 1; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, err := p.Admit(g)
			results <- err
		}(g)
	}
	waitFor(t, func() bool { return p.QueueDepth() > 0 }, 5*time.Second)

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	waitFor(t, p.Draining, 5*time.Second)
	close(gate) // release the scorer; the drain must now complete
	<-closed
	wg.Wait()
	close(results)

	admitted := 0
	for err := range results {
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
			// Legal under a tiny queue; what matters is nothing hangs.
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if admitted == 0 {
		t.Fatal("drain completed nothing")
	}
	if got := c.Stats().Active; got != admitted {
		t.Fatalf("fleet active %d, admits completed %d", got, admitted)
	}
	if st := p.Stats(); st.Active != admitted {
		t.Fatalf("post-drain Stats().Active %d, want %d", st.Active, admitted)
	}
}

// TestLaneChurnRace: concurrent Admit+Leave across lanes, with every
// session's Leave submitted the moment its Admit returns — often landing
// on a different lane than the admit (session ids hash independently of
// game ids). Run under -race this is the front end's memory-safety
// stress; the final occupancy must be exactly the sessions never left.
func TestLaneChurnRace(t *testing.T) {
	c, p := laneStack(t, 64, 4, 4, 4, 512)
	const workers, perWorker = 8, 40
	var kept sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				pl, err := p.Admit((w + i) % 12)
				if err != nil {
					if errors.Is(err, ErrNoCapacity) || errors.Is(err, ErrQueueFull) {
						continue
					}
					t.Errorf("admit: %v", err)
					return
				}
				if i%2 == 0 {
					if err := p.Leave(pl.Session); err != nil {
						t.Errorf("leave session %d: %v", pl.Session, err)
						return
					}
				} else {
					kept.Store(pl.Session, true)
				}
			}
		}(w)
	}
	wg.Wait()
	p.Close()
	if err := fleet.CheckInvariants(c); err != nil {
		t.Fatal(err)
	}

	want := 0
	kept.Range(func(any, any) bool { want++; return true })
	if got := c.Stats().Active; got != want {
		t.Fatalf("after churn: fleet active %d, sessions kept %d", got, want)
	}
}
