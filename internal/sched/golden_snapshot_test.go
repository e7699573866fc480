package sched

import (
	"math"
	"testing"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched/fleet"
)

// countingSink is a pure AuditSink: it tallies callbacks without feeding
// anything back, standing in for core.Auditor (which cannot be imported
// here — core imports sched).
type countingSink struct {
	placed, observed, dropped int
}

func (s *countingSink) Placed(sid, game int, games []int) { s.placed++ }
func (s *countingSink) Observed(sid int, fps float64)     { s.observed++ }
func (s *countingSink) Dropped(sid int)                   { s.dropped++ }

// These golden values were captured from the pre-resilience RunOnline
// implementation (the growth seed). The resilient event loop must
// reproduce them bit for bit when no faults or resilience knobs are
// configured — proving the fault-tolerance machinery is zero-cost when
// idle (same seeds, same event order, same rng consumption). Each run
// carries a live metrics registry, a live tracer (shared with the greedy
// cluster), and an audit sink: instrumentation must never perturb
// simulation state, so the goldens hold with observability enabled.
func TestRunOnlineMatchesSeedGolden(t *testing.T) {
	type golden struct {
		meanFPS, violFrac   float64
		rejected, completed int
		peakActive          int
	}
	cfgs := []churnCfg{
		{NumServers: 6, MaxPerServer: 2, OnlineConfig: OnlineConfig{ArrivalRate: 2, MeanDuration: 3, Sessions: 200, GameIDs: []int{1, 2, 3}, Seed: 1}},
		{NumServers: 3, MaxPerServer: 4, OnlineConfig: OnlineConfig{ArrivalRate: 5, MeanDuration: 2, Sessions: 500, GameIDs: []int{1, 2, 3, 4}, Seed: 42}},
		{NumServers: 1, MaxPerServer: 1, OnlineConfig: OnlineConfig{ArrivalRate: 100, MeanDuration: 10, Sessions: 50, GameIDs: []int{1}, Seed: 7}},
		{NumServers: 10, MaxPerServer: 3, OnlineConfig: OnlineConfig{ArrivalRate: 9, MeanDuration: 1.5, Sessions: 1000, GameIDs: []int{1, 2, 3}, Seed: 99}},
	}
	want := map[string]golden{
		"cfg0/greedy": {89.5339291843384, 0.0424524283986546, 1, 199, 12},
		"cfg0/ll":     {86.5228591426353, 0.0854986087351224, 1, 199, 12},
		"cfg1/greedy": {30.2268581778907, 0.82173648569241, 69, 431, 12},
		"cfg1/ll":     {26.1337846765432, 0.870735009041531, 69, 431, 12},
		"cfg2/greedy": {100, 0, 49, 1, 1},
		"cfg2/ll":     {100, 0, 49, 1, 1},
		"cfg3/greedy": {81.4073279734229, 0.0347785590411332, 0, 1000, 24},
		"cfg3/ll":     {73.01960585329, 0.165578077337153, 0, 1000, 24},
	}
	names := []string{"cfg0", "cfg1", "cfg2", "cfg3"}
	for i, cfg := range cfgs {
		tracer := trace.New(trace.Config{Seed: cfg.Seed})
		for _, pol := range []struct {
			name  string
			fleet fleet.Config
		}{
			{"greedy", fleet.Config{Mode: fleet.ModeGreedy, Scorer: fleet.ScorerFunc(toyScore), Tracer: tracer}},
			{"ll", fleet.Config{Mode: fleet.ModeLeastLoaded}},
		} {
			key := names[i] + "/" + pol.name
			cfg.Metrics = obs.New()
			cfg.Tracer = tracer
			sink := &countingSink{}
			cfg.Audit = sink
			res, err := runOn(cfg, pol.fleet, toyEval, 60)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if sink.placed == 0 || sink.observed == 0 {
				t.Errorf("%s: audit sink saw no traffic (placed=%d observed=%d)", key, sink.placed, sink.observed)
			}
			if tracer.Store().Total() == 0 {
				t.Errorf("%s: tracer recorded no decision traces", key)
			}
			w := want[key]
			// The seed values were recorded with %.15g, so compare to
			// that precision rather than bit-exactly.
			if math.Abs(res.MeanFPS-w.meanFPS) > 1e-10 || math.Abs(res.ViolationFraction-w.violFrac) > 1e-12 {
				t.Errorf("%s: metrics diverged from seed: got (%.15g, %.15g), want (%.15g, %.15g)",
					key, res.MeanFPS, res.ViolationFraction, w.meanFPS, w.violFrac)
			}
			if res.Rejected != w.rejected || res.Completed != w.completed || res.PeakActive != w.peakActive {
				t.Errorf("%s: counters diverged from seed: got (%d,%d,%d), want (%d,%d,%d)",
					key, res.Rejected, res.Completed, res.PeakActive, w.rejected, w.completed, w.peakActive)
			}
			if res.Migrated != 0 || res.Dropped != 0 || res.Shed != 0 || res.Crashes != 0 || res.MeanTimeToRecover != 0 {
				t.Errorf("%s: resilience counters must stay zero without faults: %+v", key, res)
			}
		}
	}
}
