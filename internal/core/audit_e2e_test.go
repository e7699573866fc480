// This file lives in the external test package because it drives the
// auditor through sched.RunOnline: sched imports core, so the wiring can
// only be compiled from outside the core package.
package core_test

import (
	"testing"

	"gaugur/internal/core"
	"gaugur/internal/profile"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// The auditor must satisfy the scheduler's sink interface structurally.
var _ sched.AuditSink = (*core.Auditor)(nil)

// e2eWorld builds a lab and a trained predictor for serving tests.
func e2eWorld(t *testing.T) (*core.Lab, *core.Predictor) {
	t.Helper()
	cat := sim.NewCatalog(42)
	srv := sim.NewServer(3)
	pf := &profile.Profiler{Server: srv, Repeats: 2}
	set, err := pf.ProfileCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewLab(srv, cat, set)
	if err != nil {
		t.Fatal(err)
	}
	colocs := core.RandomColocations(cat, core.ColocationPlan{Pairs: 80, Triples: 20, Quads: 10}, 17)
	train := lab.CollectSamples(colocs, 60, profile.DefaultK)
	p, err := core.Train(set, core.TrainConfig{Samples: train, Seed: 1, EncoderK: profile.DefaultK})
	if err != nil {
		t.Fatal(err)
	}
	return lab, p
}

// TestDriftAlarmPerturbedPhysics is the acceptance test for the monitor:
// audit a real trained predictor through a real churn run. Against the
// physics it was trained on the alarm stays quiet; against a perturbed
// fleet (every server secretly 40% slower — stale profiles, new hardware,
// a bad model push) the alarm fires.
func TestDriftAlarmPerturbedPhysics(t *testing.T) {
	lab, p := e2eWorld(t)
	ids := make([]int, len(lab.Catalog.Games))
	for i, g := range lab.Catalog.Games {
		ids[i] = g.ID
	}
	score := func(g []int) float64 { return p.PredictTotalFPS(core.ColocationOf(g)) }

	// The threshold sits between the two regimes: this small fixture's model
	// is honestly ~11 FPS off on average (transient 64-record windows peak
	// below 16), while the 40% perturbation pushes the window MAE to ~27.
	// A production deployment would calibrate it the same way — above the
	// model's validation-time error, below the failure mode worth paging on.
	run := func(eval sched.FPSEvaluator) core.QualitySummary {
		aud := core.NewAuditor(nil, p, p.QoS, core.AuditorConfig{Window: 64, MinResolved: 16, MAEThreshold: 18})
		cfg := sched.OnlineConfig{
			ArrivalRate:  20.0 * 4 * 0.8 / 6,
			MeanDuration: 6,
			Sessions:     400,
			GameIDs:      ids,
			Seed:         13,
			Audit:        aud,
		}
		c, err := fleet.New(fleet.Config{NumServers: 20, MaxPerServer: 4, Scorer: fleet.ScorerFunc(score)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := sched.RunOnline(cfg, c, eval, p.QoS); err != nil {
			t.Fatal(err)
		}
		return aud.Summary()
	}

	honest := func(g []int) []float64 { return lab.ExpectedFPS(core.ColocationOf(g)) }
	perturbed := func(g []int) []float64 {
		fps := lab.ExpectedFPS(core.ColocationOf(g))
		for i := range fps {
			fps[i] *= 0.6
		}
		return fps
	}

	quiet := run(honest)
	if quiet.Resolved < 100 {
		t.Fatalf("honest run resolved only %d records — workload too small to judge", quiet.Resolved)
	}
	if quiet.Drifting || quiet.DriftAlarms != 0 {
		t.Errorf("alarm fired against the training physics: %+v", quiet)
	}
	loud := run(perturbed)
	if !loud.Drifting || loud.DriftAlarms == 0 {
		t.Errorf("alarm silent against perturbed physics: %+v", loud)
	}
	if loud.RMMAE <= quiet.RMMAE {
		t.Errorf("perturbed MAE %v not above honest MAE %v", loud.RMMAE, quiet.RMMAE)
	}
}
