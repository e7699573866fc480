package fleet

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gaugur/internal/obs"
	"gaugur/internal/obs/flight"
	"gaugur/internal/obs/trace"
)

// stepClock is a deterministic strictly-increasing clock.
func stepClock() obs.Clock {
	var now int64
	return func() int64 {
		now += 7
		return now
	}
}

// TestPlaceBatchTimedMatchesSequential: stamping never perturbs a decision.
// A cluster stamping its decisions on a tracer's clock (tail sampling live,
// a registry feeding the decision histograms) places coalesced batches
// exactly as a cluster with no clock at all places the same arrivals one at
// a time; the stamped side's stamps are ordered, the clockless side's are
// zero, and the balancer writes no spans of its own.
func TestPlaceBatchTimedMatchesSequential(t *testing.T) {
	mk := func(tr *trace.Tracer, reg *obs.Registry) *Cluster {
		c, err := New(Config{
			NumServers:   32,
			ShardCount:   4,
			MaxPerServer: 2,
			K:            2,
			Seed:         9,
			Scorer:       ScorerFunc(synthScore),
			Tracer:       tr,
			Metrics:      reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	tr := trace.New(trace.Config{Seed: 5, Clock: stepClock(),
		Tail: &trace.TailPolicy{Rate: 0.25, Warmup: 32}})
	reg := obs.New()
	seq := mk(nil, nil)
	bat := mk(tr, reg)
	defer seq.Close()
	defer bat.Close()

	rng := rand.New(rand.NewSource(41))
	var active []int
	var results, one []BatchResult
	decisions := 0
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
		for i, g := range games {
			one = seq.PlaceBatch([]int{g}, one[:0])
			pl, ok := one[0].Placement, one[0].OK
			if ok != results[i].OK || (ok && pl != results[i].Placement) {
				t.Fatalf("step %d arrival %d (game %d): clockless (%+v,%v), stamped (%+v,%v)",
					step, i, g, pl, ok, results[i].Placement, results[i].OK)
			}
			if tm := one[0].Timing; tm.StartNS != 0 || tm.CommitNS != 0 || tm.EndNS != 0 {
				t.Fatalf("step %d arrival %d: a cluster with no clock stamped %+v", step, i, tm)
			}
			tm := results[i].Timing
			if tm.StartNS <= 0 || tm.EndNS <= tm.StartNS || tm.Cands < 1 || tm.Probes < 0 {
				t.Fatalf("step %d arrival %d: implausible stamps %+v", step, i, tm)
			}
			if ok && (tm.CommitNS <= tm.StartNS || tm.EndNS <= tm.CommitNS) {
				t.Fatalf("step %d arrival %d: commit stamp out of order %+v", step, i, tm)
			}
			if !ok && tm.CommitNS != 0 {
				t.Fatalf("step %d arrival %d: rejected arrival stamped a commit %+v", step, i, tm)
			}
			if i > 0 && tm.StartNS != results[i-1].Timing.EndNS {
				t.Fatalf("step %d arrival %d: start %d does not chain from the previous end %d",
					step, i, tm.StartNS, results[i-1].Timing.EndNS)
			}
			if ok {
				active = append(active, pl.Session)
			}
			decisions++
		}
	}

	verifyInvariants(t, seq)
	verifyInvariants(t, bat)
	if a, b := seq.Snapshot(), bat.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("final snapshots diverged:\nclockless: %v\nstamped:   %v", a, b)
	}
	ss, bs := seq.Stats(), bat.Stats()
	if ss.Placed != bs.Placed || ss.Rejected != bs.Rejected ||
		ss.Escapes != bs.Escapes {
		t.Fatalf("decision stats diverged:\nclockless: %+v\nstamped:   %+v", ss, bs)
	}
	if n := tr.Store().Total(); n != 0 {
		t.Errorf("the balancer committed %d traces of its own; callers own the decisions' traces", n)
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["gaugur_fleet_decision_seconds"].Count; got != int64(decisions) {
		t.Errorf("decision histogram holds %d observations, want one per decision (%d)", got, decisions)
	}
}

// countingClock counts its reads; each advances it by one.
type countingClock struct{ reads int64 }

func (c *countingClock) now() int64 {
	c.reads++
	return c.reads
}

// TestDecisionClockBudget pins what timing costs a decision: with one clock
// behind both the tracer and the registry, a warm 16-arrival batch on a
// 4-shard cluster reads it at most twice per arrival (commit, end) plus
// twice per batch (fan-out start, first decision's start) — the stamps feed
// the decision and fan-out histograms, nothing times a decision twice.
func TestDecisionClockBudget(t *testing.T) {
	clk := &countingClock{}
	c, err := New(Config{
		NumServers: 64, ShardCount: 4, MaxPerServer: 4, K: 2, Seed: 3,
		Scorer:  ScorerFunc(synthScore),
		Tracer:  trace.New(trace.Config{Seed: 1, Clock: clk.now}),
		Metrics: obs.NewWithClock(clk.now),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	games := make([]int, 16)
	for i := range games {
		games[i] = i % 5
	}
	var res []BatchResult
	for round := 0; round < 3; round++ { // warm: caches and scratch filled
		res = c.PlaceBatch(games, res[:0])
		for _, r := range res {
			c.Remove(r.Session)
		}
	}
	before := clk.reads
	res = c.PlaceBatch(games, res[:0])
	reads := clk.reads - before
	for i, r := range res {
		if !r.OK {
			t.Fatalf("arrival %d rejected on a near-empty fleet", i)
		}
	}
	if budget := int64(2*len(games) + 2); reads > budget {
		t.Errorf("a warm %d-arrival batch read the clock %d times, budget %d", len(games), reads, budget)
	}
	t.Logf("%d clock reads for %d arrivals", reads, len(games))
}

// TestFleetFlightEvents drives the cluster through escapes, a model hot
// swap, and a server crash and restore, and asserts each leaves its event
// kind in the flight recorder without a single drop (single-threaded
// balancer: TryRecord never contends here).
func TestFleetFlightEvents(t *testing.T) {
	rec := flight.New(256, nil)
	gen := uint64(1)
	c, err := New(Config{
		NumServers:   32,
		ShardCount:   4,
		MaxPerServer: 2,
		K:            2,
		Seed:         9,
		Scorer:       ScorerFunc(synthScore),
		Gen:          func() uint64 { return gen },
		Flight:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(41))
	var active []int
	for step := 0; step < 400; step++ {
		if step == 200 {
			gen = 2 // hot swap mid-run
		}
		if step == 300 {
			for _, e := range c.FailServer(0) {
				active = slices.DeleteFunc(active, func(sid int) bool { return sid == e.Session })
			}
			c.RestoreServer(0)
		}
		if len(active) > 0 && rng.Intn(4) == 0 {
			j := rng.Intn(len(active))
			c.Remove(active[j])
			active = append(active[:j], active[j+1:]...)
			continue
		}
		if pl, ok := c.Place(rng.Intn(8)); ok {
			active = append(active, pl.Session)
		}
	}

	kinds := map[string]int{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	st := c.Stats()
	for kind, want := range map[string]bool{
		"escape":         st.Escapes > 0,
		"server-fail":    true,
		"server-restore": true,
		"gen-swap":       true,
	} {
		if want && kinds[kind] == 0 {
			t.Errorf("no %q event recorded (stats %+v, kinds %v)", kind, st, kinds)
		}
	}
	if st.Escapes == 0 {
		t.Fatalf("degenerate run exercised nothing: %+v", st)
	}
	if kinds["gen-swap"] != 1 {
		t.Errorf("gen-swap recorded %d times, want exactly 1", kinds["gen-swap"])
	}
	if rec.Dropped() != 0 {
		t.Errorf("single-threaded balancer dropped %d events", rec.Dropped())
	}
}
