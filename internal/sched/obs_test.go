package sched

import (
	"slices"
	"testing"
	"time"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sim"
)

// TestOnlineMetricsMirrorResult proves the registry counters agree with the
// loop's own end-of-run counters, fault machinery included.
func TestOnlineMetricsMirrorResult(t *testing.T) {
	reg := obs.New()
	cfg := churnCfg{NumServers: 4, MaxPerServer: 2, OnlineConfig: OnlineConfig{
		ArrivalRate:  6,
		MeanDuration: 3,
		Sessions:     400,
		GameIDs:      []int{1, 2, 3},
		Seed:         5,
		Faults: []sim.FaultEvent{
			{At: 5, Kind: sim.FaultCrash, Server: 0, Duration: 2},
			{At: 20, Kind: sim.FaultCrash, Server: 1, Duration: 2},
		},
		WatchdogWindow:  0.5,
		ShedUtilization: 0.9,
		Metrics:         reg,
	}}
	res, err := runGreedy(cfg, toyScore, nil, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	checks := []struct {
		name string
		want int
	}{
		{"gaugur_sched_departures_total", res.Completed},
		{"gaugur_sched_migrations_total", res.Migrated},
		{"gaugur_sched_dropped_total", res.Dropped},
		{"gaugur_sched_shed_total", res.Shed},
		{"gaugur_sched_rejected_total", res.Rejected},
		{"gaugur_sched_crashes_total", res.Crashes},
	}
	for _, c := range checks {
		if got := snap.Counters[c.name]; got != int64(c.want) {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if res.Crashes != 2 {
		t.Errorf("expected both scheduled crashes to apply, got %d", res.Crashes)
	}
	// Placements = arrivals that were admitted plus successful migrations.
	admitted := cfg.Sessions - res.Rejected
	if got := snap.Counters["gaugur_sched_placements_total"]; got != int64(admitted+res.Migrated) {
		t.Errorf("placements = %d, want %d admitted + %d migrated", got, admitted, res.Migrated)
	}
	// Every admitted arrival, retry, and watchdog action timed a placement
	// decision; at minimum one span per admitted arrival must exist.
	if got := snap.Histograms["gaugur_sched_place_seconds"].Count; got < int64(admitted) {
		t.Errorf("placement spans = %d, want >= %d", got, admitted)
	}
	if res.Migrated > 0 && snap.Histograms["gaugur_sched_recovery_time"].Count == 0 {
		t.Error("recovery histogram empty despite migrations")
	}
	if snap.Gauges["gaugur_sched_mean_fps"] != res.MeanFPS {
		t.Errorf("mean FPS gauge = %g, want %g", snap.Gauges["gaugur_sched_mean_fps"], res.MeanFPS)
	}
	if snap.Gauges["gaugur_sched_active_sessions"] != 0 {
		t.Errorf("active gauge = %g after drain, want 0", snap.Gauges["gaugur_sched_active_sessions"])
	}
}

// TestOnlineMetricsDoNotPerturbResults runs the same config with and
// without a registry: the simulation outputs must be bit-identical, the
// invariant the golden snapshot test depends on.
func TestOnlineMetricsDoNotPerturbResults(t *testing.T) {
	cfg := churnCfg{NumServers: 5, MaxPerServer: 3, OnlineConfig: OnlineConfig{
		ArrivalRate: 4, MeanDuration: 2,
		Sessions: 600, GameIDs: []int{1, 2, 3, 4}, Seed: 11,
	}}
	bare, err := runGreedy(cfg, toyScore, nil, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obs.New()
	instr, err := runGreedy(cfg, toyScore, nil, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if bare != instr {
		t.Errorf("metrics perturbed the simulation:\nbare  %+v\ninstr %+v", bare, instr)
	}
}

// TestOnlineMetricsDeterministicWithManualClock pins full snapshot
// determinism: with an injectable manual clock even the latency histograms
// are bit-identical across runs.
func TestOnlineMetricsDeterministicWithManualClock(t *testing.T) {
	run := func() obs.Snapshot {
		clk := obs.NewManualClock(0, 100*time.Microsecond)
		reg := obs.NewWithClock(clk.Now)
		cfg := churnCfg{NumServers: 4, MaxPerServer: 2, OnlineConfig: OnlineConfig{
			ArrivalRate: 5, MeanDuration: 2,
			Sessions: 300, GameIDs: []int{1, 2, 3}, Seed: 21, Metrics: reg,
		}}
		if _, err := runGreedy(cfg, toyScore, nil, toyEval, 60); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	a, b := run(), run()
	ha, hb := a.Histograms["gaugur_sched_place_seconds"], b.Histograms["gaugur_sched_place_seconds"]
	if ha.Count != hb.Count || ha.Sum != hb.Sum {
		t.Errorf("latency histograms diverged under manual clock: %+v vs %+v", ha, hb)
	}
	for name, v := range a.Counters {
		if b.Counters[name] != v {
			t.Errorf("counter %s diverged: %d vs %d", name, v, b.Counters[name])
		}
	}
}

// overheadCfg is the workload the overhead budget is measured on: enough
// servers and sessions that placement scoring dominates, as in real runs.
func overheadCfg(reg *obs.Registry) churnCfg {
	return churnCfg{NumServers: 40, MaxPerServer: 4, OnlineConfig: OnlineConfig{
		ArrivalRate: 20, MeanDuration: 4,
		Sessions: 1500, GameIDs: []int{1, 2, 3, 4, 5}, Seed: 3, Metrics: reg,
	}}
}

func timeOnline(t *testing.T, reg *obs.Registry) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := runGreedy(overheadCfg(reg), toyScore, nil, toyEval, 60); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestObsOverheadUnderBudget asserts the acceptance bound directly: full
// instrumentation must cost <5% wall-clock on the online-loop hot path,
// with a small absolute slack so sub-millisecond jitter cannot fail a
// relative comparison.
//
// Under a full parallel `go test ./...` another package can load both
// cores through one arm's runs and not the other's, so minimums of
// independent runs are unstable. Each trial instead runs the two variants
// back to back — both land in the same noise window, so their difference
// isolates the instrumentation cost — with the order alternating between
// trials so warm-up cannot systematically favor either. The budget bounds
// the median paired difference, which one lucky trial cannot pull under
// it the way it can the smallest.
func TestObsOverheadUnderBudget(t *testing.T) {
	if raceEnabled {
		// The race detector slows allocating code (span and trace
		// construction) an order of magnitude more than the now
		// allocation-free bare scoring loop, so the ratio this test
		// bounds does not exist in race builds. The budget is enforced
		// by the regular `go test` runs.
		t.Skip("wall-clock overhead budget is not meaningful under the race detector")
	}
	const trials = 9
	minBare := time.Duration(1 << 62)
	deltas := make([]time.Duration, trials)
	for i := range deltas {
		var bare, instr time.Duration
		if i%2 == 0 {
			bare = timeOnline(t, nil)
			instr = timeOnline(t, obs.New())
		} else {
			instr = timeOnline(t, obs.New())
			bare = timeOnline(t, nil)
		}
		minBare = min(minBare, bare)
		deltas[i] = instr - bare
	}
	slices.Sort(deltas)
	medDelta := deltas[trials/2]
	budget := minBare/20 + 2*time.Millisecond
	if medDelta > budget {
		t.Errorf("instrumented online loop median overhead %v exceeds 5%%+2ms budget (%v) over bare %v", medDelta, budget, minBare)
	}
	t.Logf("bare %v, instrumented median overhead %v (budget %v)", minBare, medDelta, budget)
}

// timeOnlineTraced runs the overhead workload with the whole observability
// stack attached: registry, tracer shared with the cluster, audit sink.
func timeOnlineTraced(t *testing.T) time.Duration {
	t.Helper()
	tracer := trace.New(trace.Config{Seed: 3})
	cfg := overheadCfg(obs.New())
	cfg.Tracer = tracer
	cfg.Audit = &countingSink{}
	start := time.Now()
	if _, err := runGreedy(cfg, toyScore, tracer, toyEval, 60); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestTraceOverheadUnderBudget extends the overhead bound to tracing + audit:
// a fully traced run (decision traces, per-candidate scoring spans, audit
// callbacks) must also stay within the 5%+2ms budget over the bare loop.
//
// Shared machines see noise bursts larger than the margin being measured,
// so comparing minimums of independent runs is unstable. Instead each trial
// runs the two variants back to back — both land in the same noise window,
// so their difference isolates the tracing cost — and the budget is checked
// against the smallest paired difference. Order alternates between trials
// so cache/frequency warm-up cannot systematically favor either variant.
func TestTraceOverheadUnderBudget(t *testing.T) {
	if raceEnabled {
		// See TestObsOverheadUnderBudget: the race detector distorts
		// the allocating-vs-allocation-free ratio this budget bounds.
		t.Skip("wall-clock overhead budget is not meaningful under the race detector")
	}
	const trials = 7
	minBare := time.Duration(1 << 62)
	minDelta := time.Duration(1 << 62)
	for i := 0; i < trials; i++ {
		var bare, traced time.Duration
		if i%2 == 0 {
			bare = timeOnline(t, nil)
			traced = timeOnlineTraced(t)
		} else {
			traced = timeOnlineTraced(t)
			bare = timeOnline(t, nil)
		}
		if bare < minBare {
			minBare = bare
		}
		if d := traced - bare; d < minDelta {
			minDelta = d
		}
	}
	budget := minBare/20 + 2*time.Millisecond
	if minDelta > budget {
		t.Errorf("traced online loop overhead %v exceeds 5%%+2ms budget (%v) over bare %v", minDelta, budget, minBare)
	}
	t.Logf("bare %v, traced overhead %v (budget %v)", minBare, minDelta, budget)
}

// TestOnlineDecisionTraces pins the shape of what the loop records: one
// trace per decision, named by kind, with the cluster decision's score span
// (built from its stamps) nested under placements and outcomes annotated on
// the root.
func TestOnlineDecisionTraces(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 9})
	cfg := churnCfg{NumServers: 3, MaxPerServer: 2, OnlineConfig: OnlineConfig{
		ArrivalRate: 8, MeanDuration: 4,
		Sessions: 120, GameIDs: []int{1, 2, 3}, Seed: 17,
		Tracer: tracer,
		Faults: []sim.FaultEvent{
			{At: 2, Kind: sim.FaultCrash, Server: 0, Duration: 1},
		},
		ShedUtilization: 0.8,
	}}
	res, err := runGreedy(cfg, toyScore, tracer, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	withScoring := 0
	outcomes := map[string]int{}
	for _, tr := range tracer.Store().Recent(0) {
		byName[tr.Name]++
		for _, sp := range tr.Spans {
			if sp.Name == "score" {
				withScoring++
			}
			if sp.SpanID == tr.Root {
				for _, a := range sp.Attrs {
					if a.Key == "outcome" {
						outcomes[a.Value()]++
					}
				}
			}
		}
	}
	if byName["placement"] == 0 {
		t.Error("no placement traces recorded")
	}
	for name, n := range byName {
		if !slices.Contains([]string{"placement", "migration", "watchdog", "shed"}, name) {
			t.Errorf("%d %q traces: every trace must be one decision's, scoring nests under it", n, name)
		}
	}
	if res.Crashes > 0 && byName["migration"] == 0 {
		t.Error("crash occurred but no migration traces recorded")
	}
	if res.Shed > 0 && byName["shed"] == 0 {
		t.Error("arrivals shed but no shed traces recorded")
	}
	if withScoring == 0 {
		t.Error("no score spans nested under decisions")
	}
	if outcomes["placed"] == 0 {
		t.Errorf("no placed outcomes annotated; outcomes = %v", outcomes)
	}
}
