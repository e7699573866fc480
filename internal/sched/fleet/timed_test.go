package fleet

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gaugur/internal/obs/flight"
	"gaugur/internal/obs/trace"
)

// stepClock is a deterministic strictly-increasing trace.Clock.
func stepClock() trace.Clock {
	var now int64
	return func() int64 {
		now += 7
		return now
	}
}

// TestPlaceBatchTimedMatchesSequential extends the golden batched-equals-
// sequential contract to the timed form: breadcrumb stamping must never
// perturb a placement decision, even with tracing AND tail sampling live on
// the sequential side (the serve pipeline's exact production shape is the
// timed side — suppressed fleet traces, caller-owned spans).
func TestPlaceBatchTimedMatchesSequential(t *testing.T) {
	mk := func(tr *trace.Tracer) *Cluster {
		c, err := New(Config{
			NumServers:   32,
			ShardCount:   4,
			MaxPerServer: 2,
			K:            2,
			Seed:         9,
			Scorer:       ScorerFunc(synthScore),
			Tracer:       tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	seq := mk(trace.New(trace.Config{Seed: 5, Clock: stepClock(),
		Tail: &trace.TailPolicy{Rate: 0.25, Warmup: 32}}))
	bat := mk(trace.New(trace.Config{Seed: 5, Clock: stepClock(),
		Tail: &trace.TailPolicy{Rate: 0.25, Warmup: 32}}))
	defer seq.Close()
	defer bat.Close()

	rng := rand.New(rand.NewSource(41))
	var active []int
	var results []BatchResult
	var times []BatchTiming
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
		if cap(times) < len(games) {
			times = make([]BatchTiming, len(games))
		}
		times = times[:len(games)]
		results = bat.PlaceBatchTimed(games, results[:0], times)
		for i, g := range games {
			pl, ok := seq.Place(g)
			if ok != results[i].OK || (ok && pl != results[i].Placement) {
				t.Fatalf("step %d arrival %d (game %d): sequential (%+v,%v), timed (%+v,%v)",
					step, i, g, pl, ok, results[i].Placement, results[i].OK)
			}
			tm := times[i]
			if tm.StartNS <= 0 || tm.EndNS <= tm.StartNS || tm.Cands < 1 || tm.Probes < 0 {
				t.Fatalf("step %d arrival %d: implausible breadcrumbs %+v", step, i, tm)
			}
			if ok && (tm.CommitNS <= tm.StartNS || tm.EndNS <= tm.CommitNS) {
				t.Fatalf("step %d arrival %d: commit stamp out of order %+v", step, i, tm)
			}
			if !ok && tm.CommitNS != 0 {
				t.Fatalf("step %d arrival %d: rejected arrival stamped a commit %+v", step, i, tm)
			}
			if ok {
				active = append(active, pl.Session)
			}
		}
	}

	verifyInvariants(t, seq)
	verifyInvariants(t, bat)
	if a, b := seq.Snapshot(), bat.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("final snapshots diverged:\nsequential: %v\ntimed:      %v", a, b)
	}
	ss, bs := seq.Stats(), bat.Stats()
	if ss.Placed != bs.Placed || ss.Rejected != bs.Rejected ||
		ss.Escapes != bs.Escapes {
		t.Fatalf("decision stats diverged:\nsequential: %+v\ntimed:      %+v", ss, bs)
	}
	// Timed mode suppresses the fleet's own per-arrival traces — the caller
	// owns those. The sequential side must have recorded (a sampled subset
	// of) its placement traces; the timed side none.
	if seq.tr.Store().Total() == 0 {
		t.Error("sequential side recorded no traces despite an enabled tracer")
	}
	for _, tr := range bat.tr.Store().Recent(0) {
		if tr.Name == "fleet-placement" || tr.Name == "fleet-batch-probe" {
			t.Errorf("timed side leaked a per-arrival %q trace; caller owns those", tr.Name)
		}
	}
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
