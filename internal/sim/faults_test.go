package sim

import (
	"math"
	"testing"
	"time"
)

func faultCfg() FaultConfig {
	return FaultConfig{
		Seed:            5,
		Horizon:         100,
		NumServers:      8,
		CrashRate:       0.1,
		CrashDowntime:   5,
		SpikeRate:       0.2,
		SpikeDuration:   4,
		SpikeMagnitude:  0.6,
		DropoutRate:     0.05,
		DropoutDuration: 10,
	}
}

func TestGenerateFaultsDeterministicAndSorted(t *testing.T) {
	a := GenerateFaults(faultCfg())
	b := GenerateFaults(faultCfg())
	if len(a) == 0 {
		t.Fatal("expected a non-empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("schedule not sorted at %d: %v after %v", i, a[i].At, a[i-1].At)
		}
	}
	kinds := map[FaultKind]int{}
	for _, ev := range a {
		kinds[ev.Kind]++
		if ev.At < 0 || ev.At >= faultCfg().Horizon {
			t.Errorf("event starts outside horizon: %+v", ev)
		}
		if ev.Duration < 0 {
			t.Errorf("negative duration: %+v", ev)
		}
		if ev.Kind != FaultDropout && (ev.Server < 0 || ev.Server >= faultCfg().NumServers) {
			t.Errorf("target out of range: %+v", ev)
		}
	}
	for _, k := range []FaultKind{FaultCrash, FaultSpike, FaultDropout} {
		if kinds[k] == 0 {
			t.Errorf("no %v events over a 100-unit horizon", k)
		}
	}
}

func TestGenerateFaultsZeroRatesAndBadConfig(t *testing.T) {
	cfg := faultCfg()
	cfg.CrashRate, cfg.SpikeRate, cfg.DropoutRate = 0, 0, 0
	if evs := GenerateFaults(cfg); len(evs) != 0 {
		t.Errorf("zero rates should yield an empty schedule, got %d events", len(evs))
	}
	cfg = faultCfg()
	cfg.Horizon = 0
	if evs := GenerateFaults(cfg); evs != nil {
		t.Errorf("zero horizon should yield nil, got %d events", len(evs))
	}
}

// TestGenerateFaultsInfiniteHorizon: a stream whose arrival rate is zero has
// an infinite arrival window. Drawing faults over it used to loop forever,
// growing the schedule until the process ran out of memory.
func TestGenerateFaultsInfiniteHorizon(t *testing.T) {
	cfg := faultCfg()
	cfg.Horizon = math.Inf(1)
	done := make(chan []FaultEvent, 1)
	go func() { done <- GenerateFaults(cfg) }()
	select {
	case evs := <-done:
		if evs != nil {
			t.Errorf("infinite horizon should yield nil, got %d events", len(evs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GenerateFaults never returned on an infinite horizon")
	}
}

func TestInjectorLifecycle(t *testing.T) {
	evs := []FaultEvent{
		{At: 1, Kind: FaultCrash, Server: 2, Duration: 3},
		{At: 2, Kind: FaultSpike, Server: 0, Resource: MemBW, Magnitude: 0.4, Duration: 2},
		{At: 2.5, Kind: FaultSpike, Server: 0, Resource: MemBW, Magnitude: 0.3, Duration: 1},
		{At: 5, Kind: FaultDropout, Duration: 2},
	}
	j := NewInjector(evs)

	at, ok := j.NextChange()
	if !ok || at != 1 {
		t.Fatalf("first change at %v, want 1", at)
	}
	tr := j.AdvanceTo(1)
	if len(tr) != 1 || !tr[0].Started || tr[0].Event.Kind != FaultCrash {
		t.Fatalf("want crash start, got %+v", tr)
	}
	if !j.ServerDown(2) || j.ServerDown(0) {
		t.Error("server 2 should be down, server 0 up")
	}

	// Both spikes active at t=2.7: loads add.
	j.AdvanceTo(2.7)
	if !j.SpikeActive(0) {
		t.Error("spike should be active on server 0")
	}
	got := j.SpikeLoad(0)[MemBW]
	if math.Abs(got-0.7) > 1e-12 {
		t.Errorf("summed spike load %v, want 0.7", got)
	}

	// At t=3.9: second spike over (end 3.5), first spike and crash still on.
	tr = j.AdvanceTo(3.9)
	for _, x := range tr {
		if x.Started {
			t.Errorf("no new fault should start by t=3.9: %+v", x)
		}
	}
	if !j.ServerDown(2) {
		t.Error("server 2 should still be down at t=3.9")
	}
	if got := j.SpikeLoad(0)[MemBW]; math.Abs(got-0.4) > 1e-12 {
		t.Errorf("remaining spike load %v, want 0.4", got)
	}

	// Both the crash (end 4) and the first spike (end 4) expire at t=4.
	j.AdvanceTo(4)
	if j.ServerDown(2) {
		t.Error("server 2 should be back at t=4")
	}
	if j.SpikeActive(0) {
		t.Error("spike should have expired at t=4")
	}

	if j.OutageActive() {
		t.Error("no outage yet")
	}
	j.AdvanceTo(5.5)
	if !j.OutageActive() {
		t.Error("outage should be active at t=5.5")
	}
	j.AdvanceTo(10)
	if j.OutageActive() || j.SpikeActive(0) || j.ServerDown(2) {
		t.Error("all faults should have expired by t=10")
	}
	if _, ok := j.NextChange(); ok {
		t.Error("drained injector should report no next change")
	}
}

func TestExpectedFPSWithNeighborMatchesPhysics(t *testing.T) {
	cat := NewCatalog(42)
	srv := NewServer(7)
	insts := []Instance{
		NewInstance(cat.Games[0], Res1080p),
		NewInstance(cat.Games[1], Res1080p),
	}

	base := srv.ExpectedFPS(insts)
	zero := srv.ExpectedFPSWithNeighbor(insts, Vector{})
	for i := range base {
		if base[i] != zero[i] {
			t.Errorf("zero neighbor must be exact: %v vs %v", base[i], zero[i])
		}
	}

	var spike Vector
	spike[GPUCE] = 0.8
	hit := srv.ExpectedFPSWithNeighbor(insts, spike)
	for i := range base {
		if hit[i] >= base[i] {
			t.Errorf("instance %d: a GPU spike must cost FPS: %v vs %v", i, hit[i], base[i])
		}
	}

	// The spike must compose like a real tenant, not additively: pressure
	// from {game loads + spike} equals pressure the physics computes for a
	// phantom workload with that load vector.
	big := srv.ExpectedFPSWithNeighbor(insts, spike.Scale(2))
	for i := range hit {
		if big[i] > hit[i] {
			t.Errorf("instance %d: doubling the spike must not raise FPS", i)
		}
	}
}
