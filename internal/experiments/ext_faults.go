package experiments

import (
	"gaugur/internal/core"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// ExtFaults stresses the online dispatcher with an injected failure
// schedule — whole-server crashes, noisy-neighbor pressure spikes, and
// prediction-pipeline dropouts — and measures how much of the quality gap
// interference-aware placement keeps when the fleet stops behaving. The
// resilient loop (migration with backoff, QoS watchdog) recovers orphaned
// and suffering sessions; disabling migration shows what a crash costs a
// dispatcher that cannot move anything, and a FallbackPredictor-scored row
// shows graceful degradation riding out the dropout windows.
func ExtFaults(env *Env) (*Table, error) {
	qos := env.Cfg.QoSHigh
	p, err := env.GAugur(qos)
	if err != nil {
		return nil, err
	}
	ids := env.TenGames()

	toColoc := func(games []int) core.Colocation {
		c := make(core.Colocation, len(games))
		for i, id := range games {
			c[i] = core.Workload{GameID: id, Res: core.ReferenceResolution}
		}
		return c
	}
	eval := func(games []int) []float64 {
		return env.Lab.ExpectedFPS(toColoc(games))
	}
	// Spiked servers run the same physics with the noisy neighbor as an
	// extra phantom load vector.
	spikeEval := func(games []int, extra sim.Vector) []float64 {
		return env.Lab.Server.ExpectedFPSWithNeighbor(env.Lab.Instances(toColoc(games)), extra)
	}
	// The QoS-aware clipped scorer from ExtChurn — its best policy there,
	// and the one whose placements least need rescuing.
	scorer := func(predict func(c core.Colocation, idx int) float64) sched.Scorer {
		cap := qos * 1.25
		return func(games []int) float64 {
			c := toColoc(games)
			s := 0.0
			for i := range c {
				f := predict(c, i)
				if f > cap {
					f = cap
				}
				s += f
			}
			return s
		}
	}

	sessions := env.Cfg.Requests
	servers := sessions / 8
	if servers < 4 {
		servers = 4
	}
	base := sched.OnlineConfig{
		ArrivalRate:  float64(servers) * 0.425,
		MeanDuration: 8,
		Sessions:     sessions,
		GameIDs:      ids,
		Seed:         13,
	}

	// Faults start during the arrival window (the span where they can still
	// orphan and re-place live sessions). Per-server rates are fixed, so
	// the failure pressure scales with the fleet.
	horizon := float64(sessions) / base.ArrivalRate
	faults := sim.GenerateFaults(sim.FaultConfig{
		Seed:       29,
		Horizon:    horizon,
		NumServers: servers,
		CrashRate:  float64(servers) * 0.02, CrashDowntime: 2,
		SpikeRate: float64(servers) * 0.05, SpikeDuration: 3, SpikeMagnitude: 0.35,
		DropoutRate: 0.15, DropoutDuration: 2,
	})
	var crashes, spikes, dropouts int
	for _, f := range faults {
		switch f.Kind {
		case sim.FaultCrash:
			crashes++
		case sim.FaultSpike:
			spikes++
		case sim.FaultDropout:
			dropouts++
		}
	}

	faulted := func(migrate bool) sched.OnlineConfig {
		cfg := base
		cfg.Faults = faults
		cfg.SpikeEval = spikeEval
		cfg.DisableMigration = !migrate
		if migrate {
			cfg.WatchdogWindow = 1
		}
		return cfg
	}

	// The fallback row scores placements through the full degradation
	// chain; dropout transitions trip and release its circuit breaker.
	fb := core.NewFallbackPredictor(p, env.Profiles, qos, core.BreakerConfig{})
	fbCfg := faulted(true)
	fbCfg.OnOutage = fb.ReportOutage
	fbScore := func(c core.Colocation, idx int) float64 {
		fps, _, err := fb.PredictFPS(c, idx)
		if err != nil {
			return 0
		}
		return fps
	}

	t := &Table{
		ID:      "ext-faults",
		Title:   "Fault tolerance: crashes, pressure spikes, and prediction dropouts",
		Columns: []string{"policy", "mean FPS", "time below QoS", "migrated", "dropped", "MTTR", "rejected"},
	}
	rows := []struct {
		name  string
		cfg   sched.OnlineConfig
		fleet fleet.Config
	}{
		{"GAugur greedy, no faults", base, greedyFleet(servers, scorer(p.PredictFPS))},
		{"GAugur greedy + migration + watchdog", faulted(true), greedyFleet(servers, scorer(p.PredictFPS))},
		{"GAugur greedy + fallback chain", fbCfg, greedyFleet(servers, scorer(fbScore))},
		{"GAugur greedy, migration disabled", faulted(false), greedyFleet(servers, scorer(p.PredictFPS))},
		{"least-loaded + migration", faulted(true), leastLoadedFleet(servers)},
	}
	for _, r := range rows {
		res, err := sched.RunChurn(r.cfg, r.fleet, eval, qos)
		if err != nil {
			return nil, err
		}
		t.AddRow(r.name, f1(res.MeanFPS), f3(res.ViolationFraction),
			d0(res.Migrated), d0(res.Dropped), f3(res.MeanTimeToRecover), d0(res.Rejected))
	}
	t.AddNote("schedule (seed 29): %d crashes, %d spikes, %d prediction dropouts over %d servers", crashes, spikes, dropouts, servers)
	t.AddNote("fallback chain served %d queries from the model, %d from the capacity stage", fb.Served["model"], fb.Served["capacity"])
	return t, nil
}
