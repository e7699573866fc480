// Lifecycle end-to-end: drives the self-healing model lifecycle through
// sched.RunOnline (external test package — sched imports core, so the
// wiring only compiles from outside). This is the headline proof for the
// lifecycle subsystem: a mid-run physics change is detected by the drift
// alarm, a candidate is retrained on post-drift evidence with the REAL
// incremental GBRT/GBDT path, shadow-evaluated against the live stream,
// hot-swapped into serving, and the rolling quality recovers — all within
// one uninterrupted run, no restart.
package core_test

import (
	"testing"

	"gaugur/internal/core"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
)

// The manager must satisfy both scheduler hooks structurally.
var (
	_ sched.AuditSink       = (*core.LifecycleManager)(nil)
	_ sched.LifecycleTicker = (*core.LifecycleManager)(nil)
)

func TestLifecycleRecoversFromPerturbedPhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("lifecycle e2e is minutes-scale; skipped in -short")
	}
	lab, p := e2eWorld(t)
	ids := make([]int, len(lab.Catalog.Games))
	for i, g := range lab.Catalog.Games {
		ids[i] = g.ID
	}

	h := core.NewModelHandle(p)
	aud := core.NewAuditorHandle(nil, h, p.QoS, core.AuditorConfig{
		Window: 64, MinResolved: 16, MAEThreshold: 18, RetainExamples: 1024,
	})
	reg, err := core.NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	lm, err := core.NewLifecycleManager(h, aud, reg, core.LifecycleConfig{
		MinExamples: 96, Rounds: 150, ShadowWindow: 64, PromoteMargin: 0.05,
		ProbationWindow: 64, RollbackMAE: 24, RetrainHolddown: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The cluster scores with whatever model the handle currently serves and
	// tags its memo with the swap generation, so promoted models take over
	// future placements immediately — no stale cached scores.
	score := func(g []int) float64 { return h.Load().PredictTotalFPS(core.ColocationOf(g)) }
	cluster, err := fleet.New(fleet.Config{NumServers: 20, MaxPerServer: 4, Scorer: fleet.ScorerFunc(score), Gen: h.Generation})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Perturbed physics: every COLOCATED session runs 45% slower than the
	// world the seed model was trained on (new hardware generation, stale
	// profiles). Singletons are untouched — their predictions short-circuit
	// to the profiled solo rate, which no amount of interference-model
	// retraining could fix, so they carry no recoverable signal.
	perturbed := func(g []int) []float64 {
		fps := lab.ExpectedFPS(core.ColocationOf(g))
		if len(g) > 1 {
			for i := range fps {
				fps[i] *= 0.55
			}
		}
		return fps
	}

	cfg := sched.OnlineConfig{
		ArrivalRate:  20.0 * 4 * 0.8 / 6,
		MeanDuration: 6,
		Sessions:     1600,
		GameIDs:      ids,
		Seed:         13,
		Audit:        lm,
		Lifecycle:    lm,
	}
	if _, err := sched.RunOnline(cfg, cluster, perturbed, p.QoS); err != nil {
		t.Fatal(err)
	}

	final := aud.Summary()
	st := lm.Status()

	// The alarm must have fired: the perturbation pushes the seed model's
	// rolling MAE far past the threshold.
	if final.DriftAlarms == 0 {
		t.Fatalf("drift alarm never fired against perturbed physics: %+v", final)
	}
	// A retrained candidate must have been promoted into serving.
	if st.ActiveVersion < 2 {
		t.Fatalf("no promotion happened: %+v (quality %+v)", st, final)
	}
	if st.Generation == 0 {
		t.Fatal("serving handle never swapped")
	}
	promoted := false
	for _, ev := range reg.History() {
		switch ev.Event {
		case "promote":
			promoted = true
		case "rollback":
			t.Fatalf("recovered candidate was rolled back: %+v", reg.History())
		}
	}
	if !promoted {
		t.Fatalf("no promote event in registry history: %+v", reg.History())
	}
	// And the run must END healthy: the promoted model's rolling error is
	// back under the drift threshold, with the alarm clear — recovery
	// without a restart.
	if final.WindowResolved < 32 {
		t.Fatalf("too few post-promotion resolutions to judge recovery: %+v", final)
	}
	if final.RMMAE >= 18 {
		t.Fatalf("rolling RM MAE %.2f did not recover below the drift threshold", final.RMMAE)
	}
	if final.Drifting {
		t.Fatalf("drift alarm still raised at end of run: %+v", final)
	}
}
