package main

import (
	"fmt"

	"gaugur/internal/core"
	"gaugur/internal/experiments"
	"gaugur/internal/obs"
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
	w := bindWorld(fs, "profiles", "model", "registry", "games")
	fs.Lookup("model").Usage = "seed predictor path (ignored when -registry already holds an active model)"
	fs.Lookup("registry").Usage = "model registry directory; empty keeps versions in memory for this run only"
	ch := bindStream(fs, experiments.Churn{Servers: 50, Sessions: 4000, Load: 0.8, Duration: 6, Seed: 13})
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
	if err := w.parse(fs, args); err != nil {
		return err
	}
	if *rollbackMAE <= 0 {
		*rollbackMAE = 1.5 * *driftMAE
	}
	obsReg, tracer, stopMetrics, err := startMetrics(*metricsAddr, ch.Seed)
	if err != nil {
		return err
	}
	lab, err := w.lab()
	if err != nil {
		return err
	}
	reg, err := core.NewRegistry(w.registry)
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
	} else if p, err = loadPredictor(lab, w.model, obsReg); err != nil {
		return err
	}
	ids, err := resolveGames(lab, w.games)
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

	sc := experiments.NewScenario(lab, p.QoS, ids, *ch)
	sc.Stream.Metrics, sc.Stream.Tracer = obsReg, tracer
	sc.Stream.Audit, sc.Stream.Lifecycle = lm, lm
	// Drifted physics: only colocations feel it — singleton FPS is profiled
	// per game, so interference retraining has nothing to fix there.
	sc.Perturb = *perturb
	// Score through the handle so promoted models take over future
	// placements; the generation tag retires cached scores at each swap.
	fc := sc.Greedy(func(g []int) float64 { return h.Load().PredictTotalFPS(core.ColocationOf(g)) })
	fc.Gen = h.Generation

	fmt.Printf("%d sessions onto %d servers (QoS %.0f FPS); colocated physics at %.0f%% of profile\n",
		ch.Sessions, ch.Servers, p.QoS, 100**perturb)
	res, err := sc.Run(sc.Stream, fc)
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
	if w.registry != "" {
		fmt.Printf("registry %s now holds %d version(s)\n", w.registry, len(reg.Versions()))
	}
	stopMetrics(*metricsHold)
	return nil
}
