package main

import (
	"fmt"
	"os"

	"gaugur/internal/core"
	"gaugur/internal/experiments"
	"gaugur/internal/ml"
	"gaugur/internal/profile"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// cmdChurn simulates an online arrival/departure stream against the
// trained predictor's greedy placement and the least-loaded baseline.
func cmdChurn(args []string) error {
	fs := newFlagSet("churn")
	w := bindWorld(fs, "profiles", "model", "games")
	ch := bindStream(fs, experiments.Churn{Servers: 200, Sessions: 2000, Load: 0.85, Duration: 8, Seed: 13})
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

	// Audit the model's placement-time predictions against what each
	// session actually receives, but only on the model-driven run: the
	// least-loaded baseline never consults the predictor.
	var aud *core.Auditor
	if reg != nil {
		aud = core.NewAuditor(nil, p, p.QoS, core.AuditorConfig{Metrics: reg})
	}
	run := func(name string, fc fleet.Config, audited bool) error {
		cfg := sc.Stream
		if audited && aud != nil {
			cfg.Audit = aud
		}
		res, err := sc.Run(cfg, fc)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s mean FPS %6.1f  below-QoS time %5.1f%%  rejected %d  peak active %d\n",
			name, res.MeanFPS, 100*res.ViolationFraction, res.Rejected, res.PeakActive)
		return nil
	}
	fmt.Printf("%d sessions onto %d servers at %.0f%% target load (QoS %.0f FPS)\n",
		ch.Sessions, ch.Servers, 100*ch.Load, p.QoS)
	score := func(g []int) float64 { return p.PredictTotalFPS(core.ColocationOf(g)) }
	if err := run("GAugur greedy", sc.Greedy(score), true); err != nil {
		return err
	}
	if err := run("least-loaded", sc.LeastLoaded(), false); err != nil {
		return err
	}
	if reg != nil {
		snap := reg.Snapshot()
		fmt.Printf("metrics: %d placements, %d predictions, %d placement spans recorded\n",
			snap.Counters["gaugur_sched_placements_total"],
			snap.Counters["gaugur_predict_total"],
			snap.Histograms["gaugur_sched_place_seconds"].Count)
		printQuality(aud)
	}
	stopMetrics(*metricsHold)
	return nil
}

// printQuality renders the audit monitor's rolling model-quality state.
func printQuality(aud *core.Auditor) {
	if aud == nil {
		return
	}
	s := aud.Summary()
	state := "quiet"
	if s.Drifting {
		state = "DRIFTING"
	}
	fmt.Printf("quality: %d/%d predictions resolved  RM MAE %.2f FPS  CM accuracy %.3f  false-QoS-pass %.3f  drift %s (%d alarms)\n",
		s.Resolved, s.Placed, s.RMMAE, s.CMAccuracy, s.FalseQoSPassRate, state, s.DriftAlarms)
}

// cmdOnboard demonstrates collaborative-filtering onboarding: it profiles a
// named game with the cheap probe plan plus matrix completion against the
// stored library, and reports how close the completed profile is to a full
// sweep.
func cmdOnboard(args []string) error {
	fs := newFlagSet("onboard")
	w := bindWorld(fs, "profiles")
	fs.Lookup("profiles").Usage = "profile library path"
	game := fs.String("game", "", "game to onboard (must exist in the catalog)")
	out := fs.String("out", "", "optional path to append-save the completed profile set")
	rank := fs.Int("rank", 10, "matrix-factorization rank")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *game == "" {
		return fmt.Errorf("onboard: -game is required")
	}
	catalog := sim.NewCatalog(w.catalogSeed)
	server := sim.NewServer(w.serverSeed)
	g := catalog.Get(*game)
	if g == nil {
		return fmt.Errorf("onboard: unknown game %q", *game)
	}

	f, err := os.Open(w.profiles)
	if err != nil {
		return err
	}
	set, err := profile.LoadSet(f)
	f.Close()
	if err != nil {
		return err
	}

	// The library is every profile EXCEPT the target (a new game is by
	// definition not in the library).
	library := &profile.Set{ByID: map[int]*profile.GameProfile{}}
	for _, p := range set.Order {
		if p.GameID == g.ID {
			continue
		}
		library.ByID[p.GameID] = p
		library.Order = append(library.Order, p)
	}
	completer, err := profile.NewCompleter(library, ml.MFConfig{Rank: *rank, Epochs: 300, Seed: 3})
	if err != nil {
		return err
	}
	plan := profile.DefaultProbePlan(profile.DefaultK)
	est, err := completer.ProbeAndComplete(server, g, plan, sim.Res720p, sim.Res1080p)
	if err != nil {
		return err
	}
	fmt.Printf("onboarded %q with %d probe runs (full sweep: 123)\n", g.Name, plan.Runs()+2)

	// If the library had a full profile for this game, report fidelity.
	if truth := set.Get(g.ID); truth != nil {
		var curveMAE, intenMAE float64
		n := 0
		for r := 0; r < sim.NumResources; r++ {
			for i := range truth.Sensitivity[r] {
				d := est.Sensitivity[r][i] - truth.Sensitivity[r][i]
				if d < 0 {
					d = -d
				}
				curveMAE += d
				n++
			}
			d := est.IntensityBase[r] - truth.IntensityBase[r]
			if d < 0 {
				d = -d
			}
			intenMAE += d
		}
		fmt.Printf("vs full profile: sensitivity MAE %.3f, intensity MAE %.3f\n",
			curveMAE/float64(n), intenMAE/float64(sim.NumResources))
	}

	if *out != "" {
		library.ByID[est.GameID] = est
		library.Order = append(library.Order, est)
		fo, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer fo.Close()
		if err := profile.SaveSet(fo, library); err != nil {
			return err
		}
		fmt.Printf("library + completed profile -> %s\n", *out)
	}
	return nil
}
