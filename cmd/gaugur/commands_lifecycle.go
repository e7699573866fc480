package main

import (
	"fmt"

	"gaugur/internal/core"
	"gaugur/internal/obs"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
)

// loadServingModel resolves the model the dispatcher serves: when a
// registry directory is given, the registry's ACTIVE version wins over the
// flat -model file — the registry is the durable record of what the
// self-healing lifecycle last promoted, so a restarted process resumes
// from the healed model, not the stale seed artifact.
func loadServingModel(lab *core.Lab, model, registryDir string, reg *obs.Registry) (*core.Predictor, error) {
	if registryDir == "" {
		return loadPredictor(lab, model, reg)
	}
	r, err := core.NewRegistry(registryDir)
	if err != nil {
		return nil, err
	}
	act, ok := r.Active()
	if !ok {
		return nil, fmt.Errorf("registry %s holds no active model; run gaugur lifecycle against it first (or drop -registry to use -model)", registryDir)
	}
	p, err := r.Load(act.Version, lab.Profiles)
	if err != nil {
		return nil, err
	}
	fmt.Printf("serving registry %s version %d (%s)\n", registryDir, act.Version, act.Note)
	return p.EnableMetrics(reg).Compile(), nil
}

// cmdLifecycle runs the self-healing loop against drifted physics: the
// profiled model serves a churn stream whose colocated sessions run at a
// fraction of the physics it was trained on (stale profiles, new hardware
// generation). The drift alarm trips, the auditor's retained evidence
// retrains a candidate, the candidate shadows the live stream, and — if it
// beats the incumbent — is hot-swapped into serving mid-run, with
// automatic rollback if it then regresses. With -registry the version
// lineage and promotion history persist across runs.
func cmdLifecycle(args []string) error {
	fs := newFlagSet("lifecycle")
	catalogSeed := fs.Int64("catalog-seed", 42, "catalog generation seed")
	serverSeed := fs.Int64("server-seed", 7, "measurement noise seed")
	profiles := fs.String("profiles", "profiles.json", "profile set path")
	model := fs.String("model", "model.gob", "seed predictor path (ignored when -registry already holds an active model)")
	registry := fs.String("registry", "", "model registry directory; empty keeps versions in memory for this run only")
	games := fs.String("games", "", "comma-separated game names or ids")
	servers := fs.Int("servers", 50, "fleet size")
	sessions := fs.Int("sessions", 4000, "total session arrivals")
	load := fs.Float64("load", 0.8, "target fleet load (fraction of slot capacity)")
	duration := fs.Float64("duration", 6, "mean session duration (time units)")
	seed := fs.Int64("seed", 13, "simulation seed")
	perturb := fs.Float64("perturb", 0.55, "colocated sessions run at this fraction of the profiled physics (1 = no drift)")
	window := fs.Int("window", 64, "rolling quality window (resolved records)")
	driftMAE := fs.Float64("drift-mae", 15, "rolling RM MAE (FPS) that trips the drift alarm")
	retain := fs.Int("retain", 4096, "retraining evidence ring size (resolved examples)")
	minExamples := fs.Int("min-examples", 128, "post-alarm examples required before retraining")
	rounds := fs.Int("rounds", 150, "boosting rounds appended per incremental retrain")
	shadowWindow := fs.Int("shadow-window", 96, "resolved shadow predictions the promotion gate needs")
	promoteMargin := fs.Float64("promote-margin", 0.05, "fractional MAE improvement required to promote")
	probation := fs.Int("probation", 96, "resolved records the promoted model is watched for regression")
	rollbackMAE := fs.Float64("rollback-mae", 0, "probation MAE triggering rollback (0 = 1.5x -drift-mae)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar, pprof, and /debug/traces on this address during the run")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint open this long after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *games == "" {
		return fmt.Errorf("lifecycle: -games is required")
	}
	if *rollbackMAE <= 0 {
		*rollbackMAE = 1.5 * *driftMAE
	}
	obsReg, tracer, stopMetrics, err := startMetrics(*metricsAddr, *seed)
	if err != nil {
		return err
	}
	lab, err := loadWorld(*catalogSeed, *serverSeed, *profiles)
	if err != nil {
		return err
	}
	reg, err := core.NewRegistry(*registry)
	if err != nil {
		return err
	}
	// Resume the registry's lineage when it has one; otherwise the -model
	// file seeds version 1.
	var p *core.Predictor
	if act, ok := reg.Active(); ok {
		if p, err = reg.Load(act.Version, lab.Profiles); err != nil {
			return err
		}
		p.EnableMetrics(obsReg).Compile()
		fmt.Printf("resuming registry lineage at version %d (%s)\n", act.Version, act.Note)
	} else if p, err = loadPredictor(lab, *model, obsReg); err != nil {
		return err
	}
	ids, err := resolveGames(lab, *games)
	if err != nil {
		return err
	}

	h := core.NewModelHandle(p)
	aud := core.NewAuditorHandle(nil, h, p.QoS, core.AuditorConfig{
		Window:         *window,
		MinResolved:    *window / 4,
		MAEThreshold:   *driftMAE,
		RetainExamples: *retain,
		Metrics:        obsReg,
	})
	lm, err := core.NewLifecycleManager(h, aud, reg, core.LifecycleConfig{
		MinExamples:     *minExamples,
		Rounds:          *rounds,
		ShadowWindow:    *shadowWindow,
		PromoteMargin:   *promoteMargin,
		ProbationWindow: *probation,
		RollbackMAE:     *rollbackMAE,
		Metrics:         obsReg,
	})
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
	// Score through the handle so promoted models take over future
	// placements; the generation tag retires cached scores at each swap.
	score := func(g []int) float64 { return h.Load().PredictTotalFPS(toColoc(g)) }
	// Drifted physics: only colocations feel it — singleton FPS is profiled
	// per game, so interference retraining has nothing to fix there.
	eval := func(g []int) []float64 {
		fps := lab.ExpectedFPS(toColoc(g))
		if len(g) > 1 && *perturb != 1 {
			for i := range fps {
				fps[i] *= *perturb
			}
		}
		return fps
	}

	const maxPer = 4
	fmt.Printf("%d sessions onto %d servers (QoS %.0f FPS); colocated physics at %.0f%% of profile\n",
		*sessions, *servers, p.QoS, 100**perturb)
	res, err := sched.RunChurn(sched.OnlineConfig{
		ArrivalRate:  *load * float64(*servers) * maxPer / *duration,
		MeanDuration: *duration,
		Sessions:     *sessions,
		GameIDs:      ids,
		Seed:         *seed,
		Audit:        lm,
		Lifecycle:    lm,
		Metrics:      obsReg,
		Tracer:       tracer,
	}, fleet.Config{
		NumServers: *servers, MaxPerServer: maxPer, Scorer: fleet.ScorerFunc(score), Gen: h.Generation, Tracer: tracer,
	}, eval, p.QoS)
	if err != nil {
		return err
	}
	fmt.Printf("stream: mean FPS %.1f  below-QoS time %.1f%%  rejected %d\n",
		res.MeanFPS, 100*res.ViolationFraction, res.Rejected)

	st := lm.Status()
	fmt.Printf("lifecycle: phase %s  active version %d  generation %d  retrain failures %d  retained examples %d\n",
		st.Phase, st.ActiveVersion, st.Generation, st.Failures, aud.RetainedExamples())
	for _, ev := range reg.History() {
		switch ev.Event {
		case "promote", "rollback":
			fmt.Printf("  %-10s v%d (displacing v%d): %s\n", ev.Event, ev.Version, ev.Prev, ev.Note)
		default:
			fmt.Printf("  %-10s v%d: %s\n", ev.Event, ev.Version, ev.Note)
		}
	}
	printQuality(aud)
	if *registry != "" {
		fmt.Printf("registry %s now holds %d version(s)\n", *registry, len(reg.Versions()))
	}
	stopMetrics(*metricsHold)
	return nil
}
