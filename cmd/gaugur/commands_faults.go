package main

import (
	"fmt"

	"gaugur/internal/core"
	"gaugur/internal/experiments"
	"gaugur/internal/sched/fleet"
)

// cmdFaults runs the churn stream under an injected failure schedule —
// server crashes, noisy-neighbor spikes, and prediction dropouts — and
// reports how each placement strategy holds up, with and without session
// migration. Predictions flow through the fallback chain so dropout
// windows degrade to the capacity check instead of stalling placement.
func cmdFaults(args []string) error {
	fs := newFlagSet("faults")
	w := bindWorld(fs, "profiles", "model", "registry", "games")
	ch := bindStream(fs, experiments.Churn{Servers: 200, Sessions: 2000, Load: 0.85, Duration: 8, Seed: 13})
	faultSeed := fs.Int64("fault-seed", 29, "fault schedule seed")
	crashRate := fs.Float64("crash-rate", 0.02, "mean crashes per server per unit time")
	spikeRate := fs.Float64("spike-rate", 0.05, "mean pressure spikes per server per unit time")
	spikeMag := fs.Float64("spike-mag", 0.35, "mean spike load on the targeted resource")
	dropoutRate := fs.Float64("dropout-rate", 0.15, "mean prediction dropouts per unit time")
	watchdog := fs.Float64("watchdog", 1, "QoS watchdog window (0 disables)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar, and pprof on this address during the run")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint open this long after the run")
	if err := w.parse(fs, args); err != nil {
		return err
	}
	reg, tracer, stopMetrics, err := startMetrics(*metricsAddr, ch.Seed)
	if err != nil {
		return err
	}
	lab, p, ids, err := w.load(reg)
	if err != nil {
		return err
	}
	sc := experiments.NewScenario(lab, p.QoS, ids, *ch)
	sc.Stream.Metrics, sc.Stream.Tracer = reg, tracer
	sc.Faults = experiments.FaultMix(*faultSeed, ch.Servers, *crashRate, *spikeRate, *spikeMag, *dropoutRate)
	sch, err := sc.Schedule()
	if err != nil {
		return err
	}
	fmt.Printf("%d sessions onto %d servers (QoS %.0f FPS); schedule: %d crashes, %d spikes, %d dropouts\n",
		ch.Sessions, ch.Servers, p.QoS, sch.Crashes, sch.Spikes, sch.Dropouts)

	// The greedy scorer runs through the fallback chain so the dropout
	// windows exercise graceful degradation.
	fb := core.NewFallbackPredictor(p, lab.Profiles, p.QoS, core.BreakerConfig{}).EnableMetrics(reg)
	// Audit through the fallback chain so records carry the serving stage;
	// attached only to the first (model-driven, migrating) run.
	var aud *core.Auditor
	if reg != nil {
		aud = core.NewAuditor(fb, p, p.QoS, core.AuditorConfig{Metrics: reg})
	}

	run := func(name string, fc fleet.Config, migrate, audited bool) error {
		cfg := sc.Faulted(sch, migrate, *watchdog)
		cfg.OnOutage = fb.ReportOutage
		if audited && aud != nil {
			cfg.Audit = aud
		}
		res, err := sc.Run(cfg, fc)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s mean FPS %6.1f  below-QoS time %5.1f%%  migrated %d  dropped %d  MTTR %.2f  rejected %d\n",
			name, res.MeanFPS, 100*res.ViolationFraction, res.Migrated, res.Dropped, res.MeanTimeToRecover, res.Rejected)
		return nil
	}

	greedy := sc.Greedy(func(g []int) float64 { return fb.PredictTotalFPS(core.ColocationOf(g)) })
	if err := run("GAugur greedy + migration", greedy, true, true); err != nil {
		return err
	}
	if err := run("GAugur greedy, no migration", greedy, false, false); err != nil {
		return err
	}
	if err := run("least-loaded + migration", sc.LeastLoaded(), true, false); err != nil {
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
