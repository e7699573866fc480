package main

import (
	"fmt"

	"gaugur/internal/core"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// cmdFaults runs the churn stream under an injected failure schedule —
// server crashes, noisy-neighbor spikes, and prediction dropouts — and
// reports how each placement strategy holds up, with and without session
// migration. Predictions flow through the fallback chain so dropout
// windows degrade to the capacity check instead of stalling placement.
func cmdFaults(args []string) error {
	fs := newFlagSet("faults")
	catalogSeed := fs.Int64("catalog-seed", 42, "catalog generation seed")
	serverSeed := fs.Int64("server-seed", 7, "measurement noise seed")
	profiles := fs.String("profiles", "profiles.json", "profile set path")
	model := fs.String("model", "model.gob", "trained predictor path")
	registry := fs.String("registry", "", "model registry directory; serves its active version instead of -model")
	games := fs.String("games", "", "comma-separated game names or ids")
	servers := fs.Int("servers", 200, "fleet size")
	sessions := fs.Int("sessions", 2000, "total session arrivals")
	load := fs.Float64("load", 0.85, "target fleet load (fraction of slot capacity)")
	duration := fs.Float64("duration", 8, "mean session duration (time units)")
	seed := fs.Int64("seed", 13, "simulation seed")
	faultSeed := fs.Int64("fault-seed", 29, "fault schedule seed")
	crashRate := fs.Float64("crash-rate", 0.02, "mean crashes per server per unit time")
	spikeRate := fs.Float64("spike-rate", 0.05, "mean pressure spikes per server per unit time")
	spikeMag := fs.Float64("spike-mag", 0.35, "mean spike load on the targeted resource")
	dropoutRate := fs.Float64("dropout-rate", 0.15, "mean prediction dropouts per unit time")
	watchdog := fs.Float64("watchdog", 1, "QoS watchdog window (0 disables)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar, and pprof on this address during the run")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint open this long after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *games == "" {
		return fmt.Errorf("faults: -games is required")
	}
	reg, tracer, stopMetrics, err := startMetrics(*metricsAddr, *seed)
	if err != nil {
		return err
	}
	lab, err := loadWorld(*catalogSeed, *serverSeed, *profiles)
	if err != nil {
		return err
	}
	p, err := loadServingModel(lab, *model, *registry, reg)
	if err != nil {
		return err
	}
	ids, err := resolveGames(lab, *games)
	if err != nil {
		return err
	}

	toColoc := func(g []int) core.Colocation {
		c := make(core.Colocation, len(g))
		for i, id := range g {
			c[i] = core.Workload{GameID: id, Res: core.ReferenceResolution}
		}
		return c
	}
	eval := func(g []int) []float64 { return lab.ExpectedFPS(toColoc(g)) }
	spikeEval := func(g []int, extra sim.Vector) []float64 {
		return lab.Server.ExpectedFPSWithNeighbor(lab.Instances(toColoc(g)), extra)
	}

	const maxPer = 4
	base := sched.OnlineConfig{
		ArrivalRate:  *load * float64(*servers) * maxPer / *duration,
		MeanDuration: *duration,
		Sessions:     *sessions,
		GameIDs:      ids,
		Seed:         *seed,
	}
	horizon := float64(*sessions) / base.ArrivalRate
	faults := sim.GenerateFaults(sim.FaultConfig{
		Seed:       *faultSeed,
		Horizon:    horizon,
		NumServers: *servers,
		CrashRate:  *crashRate * float64(*servers), CrashDowntime: 2,
		SpikeRate: *spikeRate * float64(*servers), SpikeDuration: 3, SpikeMagnitude: *spikeMag,
		DropoutRate: *dropoutRate, DropoutDuration: 2,
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
	fmt.Printf("%d sessions onto %d servers (QoS %.0f FPS); schedule: %d crashes, %d spikes, %d dropouts\n",
		*sessions, *servers, p.QoS, crashes, spikes, dropouts)

	// The greedy scorer runs through the fallback chain so the dropout
	// windows exercise graceful degradation.
	fb := core.NewFallbackPredictor(p, lab.Profiles, p.QoS, core.BreakerConfig{}).
		EnableMetrics(reg).EnableTracing(tracer)
	score := func(g []int) float64 { return fb.PredictTotalFPS(toColoc(g)) }
	// Audit through the fallback chain so records carry the serving stage;
	// attached only to the first (model-driven, migrating) run.
	var aud *core.Auditor
	if reg != nil {
		aud = core.NewAuditor(fb, p, p.QoS, core.AuditorConfig{Metrics: reg})
	}

	run := func(name string, fc fleet.Config, migrate, audited bool) error {
		cfg := base
		cfg.Faults = faults
		cfg.SpikeEval = spikeEval
		cfg.DisableMigration = !migrate
		cfg.OnOutage = fb.ReportOutage
		cfg.Metrics = reg
		cfg.Tracer = tracer
		if audited && aud != nil {
			cfg.Audit = aud
		}
		if migrate {
			cfg.WatchdogWindow = *watchdog
		}
		res, err := sched.RunChurn(cfg, fc, eval, p.QoS)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s mean FPS %6.1f  below-QoS time %5.1f%%  migrated %d  dropped %d  MTTR %.2f  rejected %d\n",
			name, res.MeanFPS, 100*res.ViolationFraction, res.Migrated, res.Dropped, res.MeanTimeToRecover, res.Rejected)
		return nil
	}

	greedy := fleet.Config{NumServers: *servers, MaxPerServer: maxPer, Scorer: fleet.ScorerFunc(score), Tracer: tracer}
	if err := run("GAugur greedy + migration", greedy, true, true); err != nil {
		return err
	}
	if err := run("GAugur greedy, no migration", greedy, false, false); err != nil {
		return err
	}
	leastLoaded := fleet.Config{NumServers: *servers, MaxPerServer: maxPer, Mode: fleet.ModeLeastLoaded}
	if err := run("least-loaded + migration", leastLoaded, true, false); err != nil {
		return err
	}
	fmt.Printf("fallback chain: %d queries served by the model, %d by the capacity stage\n",
		fb.Served["model"], fb.Served["capacity"])
	if reg != nil {
		snap := reg.Snapshot()
		fmt.Printf("metrics: %d migrations, %d crashes, %d breaker transitions recorded\n",
			snap.Counters["gaugur_sched_migrations_total"],
			snap.Counters["gaugur_sched_crashes_total"],
			snap.Counters[`gaugur_fallback_breaker_transitions_total{stage="model"}`])
		printQuality(aud)
	}
	stopMetrics(*metricsHold)
	return nil
}
