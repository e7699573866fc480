package experiments

import (
	"gaugur/internal/core"
	"gaugur/internal/ml"
	"gaugur/internal/profile"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
	"gaugur/internal/stats"
)

// This file implements the scale-oriented extensions: collaborative-
// filtering profiling (Paragon/Quasar-style, cited as complementary),
// online session churn, and heterogeneous server classes (future work 1).

// ExtCF holds out part of the catalog, onboards those games with 14 probe
// runs plus matrix completion instead of the full 123-run sweep, and
// measures how much RM accuracy the cheap profiles cost.
func ExtCF(env *Env) (*Table, error) {
	qos := env.Cfg.QoSHigh
	trainColocs, testColocs := env.Colocations()

	const holdout = 20
	library := &profile.Set{ByID: map[int]*profile.GameProfile{}}
	for _, p := range env.Profiles.Order[:env.Profiles.Len()-holdout] {
		library.ByID[p.GameID] = p
		library.Order = append(library.Order, p)
	}
	heldOut := env.Profiles.Order[env.Profiles.Len()-holdout:]

	completer, err := profile.NewCompleter(library, ml.MFConfig{Rank: 10, Epochs: 300, Seed: 3})
	if err != nil {
		return nil, err
	}
	plan := profile.DefaultProbePlan(profile.DefaultK)

	// Hybrid set: full profiles for the library, probe-completed for the
	// held-out games.
	hybrid := &profile.Set{ByID: map[int]*profile.GameProfile{}}
	for _, p := range library.Order {
		hybrid.ByID[p.GameID] = p
		hybrid.Order = append(hybrid.Order, p)
	}
	for _, truth := range heldOut {
		g := env.Catalog.Games[truth.GameID]
		est, err := completer.ProbeAndComplete(env.Server, g, plan, truth.ResLo, truth.ResHi)
		if err != nil {
			return nil, err
		}
		hybrid.ByID[est.GameID] = est
		hybrid.Order = append(hybrid.Order, est)
	}

	labH, err := core.NewLab(env.Server, env.Catalog, hybrid)
	if err != nil {
		return nil, err
	}
	samplesH := labH.CollectSamples(trainColocs, qos, profile.DefaultK)
	predH, err := core.Train(hybrid, core.TrainConfig{Samples: samplesH, Seed: 1, EncoderK: profile.DefaultK})
	if err != nil {
		return nil, err
	}
	testH := labH.CollectSamples(testColocs, qos, profile.DefaultK)
	var hybridErrs []float64
	heldOutIDs := map[int]bool{}
	for _, p := range heldOut {
		heldOutIDs[p.GameID] = true
	}
	var hybridHeldErrs []float64
	for _, s := range testH.Samples {
		e := ml.RelativeError(predH.PredictDegradation(s.Coloc, s.Index), s.RMY)
		hybridErrs = append(hybridErrs, e)
		if heldOutIDs[s.Coloc[s.Index].GameID] {
			hybridHeldErrs = append(hybridHeldErrs, e)
		}
	}

	// Full-profile baseline on the same test outcomes.
	fullRM, err := env.FittedRegressor(core.GBRT, 0)
	if err != nil {
		return nil, err
	}
	_, fullTest := env.Samples(qos)
	fullErrs := regressorErrors(fullRM, fullTest)

	fullRuns := sim.NumResources*(profile.DefaultK+1) + 4*(profile.DefaultK+1) + 2
	t := &Table{
		ID:      "ext-cf",
		Title:   "Collaborative-filtering onboarding vs. full profiling",
		Columns: []string{"profiling", "runs per new game", "RM error (all)", "RM error (held-out targets)"},
	}
	t.AddRow("full sweep", d0(fullRuns), f4(stats.Mean(fullErrs)), "-")
	t.AddRow("14 probes + matrix completion", d0(plan.Runs()+2), f4(stats.Mean(hybridErrs)), f4(stats.Mean(hybridHeldErrs)))
	t.AddNote("%d of 100 games onboarded from probes; library factorized at rank 10", holdout)
	return t, nil
}

// ExtChurn drives the placement policies through an online arrival/
// departure stream — the regime a production dispatcher actually faces.
func ExtChurn(env *Env) (*Table, error) {
	qos := env.Cfg.QoSHigh
	p, err := env.GAugur(qos)
	if err != nil {
		return nil, err
	}
	sg, err := env.Sigmoid(qos)
	if err != nil {
		return nil, err
	}
	sc := env.churnScenario()

	t := &Table{
		ID:      "ext-churn",
		Title:   "Online session churn: time-averaged quality per placement policy",
		Columns: []string{"policy", "mean FPS", "time below QoS", "rejected", "peak active"},
	}
	policies := []struct {
		name  string
		fleet fleet.Config
	}{
		{"GAugur(RM) greedy", sc.Greedy(sched.TotalFPS(p.PredictFPS, 0))},
		{"GAugur(RM) QoS-aware", sc.Greedy(sched.TotalFPS(p.PredictFPS, qosAwareCap(qos)))},
		{"Sigmoid greedy", sc.Greedy(sched.TotalFPS(sg.PredictFPS, 0))},
		{"least-loaded", sc.LeastLoaded()},
	}
	for _, pl := range policies {
		res, err := sc.Run(sc.Stream, pl.fleet)
		if err != nil {
			return nil, err
		}
		t.AddRow(pl.name, f1(res.MeanFPS), f3(res.ViolationFraction), d0(res.Rejected), d0(res.PeakActive))
	}
	t.AddNote("%d sessions, %d servers, Poisson arrivals, exponential playtimes", sc.Stream.Sessions, sc.Servers)
	return t, nil
}

// churnScenario is the stream ext-churn and ext-faults replay: Requests
// sessions on one server per eight (at least four), offered ~3.4 concurrent
// sessions per 4-slot server, so placement quality, not slack, decides the
// outcome.
func (e *Env) churnScenario() *Scenario {
	sessions := e.Cfg.Requests
	servers := max(sessions/8, 4)
	return NewScenario(e.Lab, e.Cfg.QoSHigh, e.TenGames(),
		Churn{Servers: servers, Sessions: sessions, Load: 0.85, Duration: 8, Seed: 13})
}

// qosAwareCap is where the QoS-aware greedy clips each session's predicted
// frame rate: above ~1.25x the floor, frame rate adds no value.
func qosAwareCap(qos float64) float64 { return qos * 1.25 }

// ExtHetero quantifies cross-server-type transfer (future work 1): models
// profiled and trained on the reference class are applied to budget and
// high-end fleets, with and without per-class re-profiling.
func ExtHetero(env *Env) (*Table, error) {
	qos := env.Cfg.QoSHigh
	_, testColocs := env.Colocations()

	refPred, err := env.GAugur(qos)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "ext-hetero",
		Title:   "Cross-class transfer: reference-trained models on other hardware (future work 1)",
		Columns: []string{"target class", "strategy", "RM error"},
	}
	for _, class := range []sim.ServerClass{sim.ClassBudget, sim.ClassHighEnd} {
		target := sim.NewServerOfClass(env.Cfg.ServerSeed+7, class)
		targetLab, err := core.NewLab(target, env.Catalog, env.Profiles)
		if err != nil {
			return nil, err
		}
		// Ground truth on the target class; features from reference
		// profiles (naive transfer).
		naiveTest := targetLab.CollectSamples(testColocs, qos, profile.DefaultK)
		var naiveErrs []float64
		for _, s := range naiveTest.Samples {
			naiveErrs = append(naiveErrs, ml.RelativeError(refPred.PredictDegradation(s.Coloc, s.Index), s.RMY))
		}
		t.AddRow(class.Name, "reuse reference models", f4(stats.Mean(naiveErrs)))

		// Per-class pipeline: re-profile and re-train on the target.
		lab2, pred2, err := env.pipelineOn(target, false, core.MetricMean, qos)
		if err != nil {
			return nil, err
		}
		perClassTest := lab2.CollectSamples(testColocs, qos, profile.DefaultK)
		var classErrs []float64
		for _, s := range perClassTest.Samples {
			classErrs = append(classErrs, ml.RelativeError(pred2.PredictDegradation(s.Coloc, s.Index), s.RMY))
		}
		t.AddRow(class.Name, "per-class profile + train", f4(stats.Mean(classErrs)))
	}
	t.AddNote("per-class pipelines restore reference-level accuracy; naive reuse degrades most on the budget class")
	return t, nil
}
