package experiments

import (
	"gaugur/internal/core"
)

// ExtLifecycle demonstrates the self-healing model lifecycle against
// drifted physics. The serving model was trained on the profiled world;
// the fleet it now dispatches onto runs every COLOCATED session 45%
// slower (a hardware refresh the profiles never saw — singletons are
// untouched because their predictions short-circuit to the profiled solo
// rate). The stale row shows the failure mode PR 4 could only watch: the
// drift alarm fires and the run keeps serving bad predictions to the end.
// The self-healing row closes the loop — the auditor's retained evidence
// retrains a candidate incrementally, the candidate shadows the live
// decision stream, and the promotion gate hot-swaps it into serving
// mid-run, leaving the rolling RM MAE back under the alarm threshold
// without a restart.
func ExtLifecycle(env *Env) (*Table, error) {
	qos := env.Cfg.QoSHigh
	p, err := env.GAugur(qos)
	if err != nil {
		return nil, err
	}
	sessions := env.Cfg.Requests * 2
	sc := NewScenario(env.Lab, qos, env.TenGames(),
		Churn{Servers: max(sessions/40, 8), Sessions: sessions, Load: 0.8, Duration: 6, Seed: 13})
	// The drifted world: colocations interfere 45% harder than profiled.
	sc.Perturb = 0.55
	audCfg := core.AuditorConfig{Window: 48, MinResolved: 12, MAEThreshold: 15}

	t := &Table{
		ID:      "ext-lifecycle",
		Title:   "Self-healing lifecycle: drift-triggered retrain, shadow gate, hot swap",
		Columns: []string{"serving", "mean FPS", "time below QoS", "final RM MAE", "alarms", "promotions", "rollbacks", "version"},
	}

	// Row 1: the stale model rides out the whole run. The auditor watches
	// (and alarms) but nothing reacts.
	staleAud := core.NewAuditor(nil, p, qos, audCfg)
	staleCfg := sc.Stream
	staleCfg.Audit = staleAud
	staleRes, err := sc.Run(staleCfg, sc.Greedy(func(g []int) float64 {
		return p.PredictTotalFPS(core.ColocationOf(g))
	}))
	if err != nil {
		return nil, err
	}
	ss := staleAud.Summary()
	t.AddRow("stale model, alarm only", f1(staleRes.MeanFPS), f3(staleRes.ViolationFraction),
		f1(ss.RMMAE), d0(int(ss.DriftAlarms)), "0", "0", "1")

	// Row 2: the full reaction path, on the identical arrival stream.
	h := core.NewModelHandle(p)
	retainCfg := audCfg
	retainCfg.RetainExamples = sessions
	aud := core.NewAuditorHandle(nil, h, qos, retainCfg)
	reg, err := core.NewRegistry("")
	if err != nil {
		return nil, err
	}
	lm, err := core.NewLifecycleManager(h, aud, reg, core.LifecycleConfig{
		MinExamples: 64, Rounds: 120, ShadowWindow: 48, PromoteMargin: 0.05,
		ProbationWindow: 48, RollbackMAE: 24, RetrainHolddown: 8,
	})
	if err != nil {
		return nil, err
	}
	healCfg := sc.Stream
	healCfg.Audit = lm
	healCfg.Lifecycle = lm
	healFleet := sc.Greedy(func(g []int) float64 {
		return h.Load().PredictTotalFPS(core.ColocationOf(g))
	})
	healFleet.Gen = h.Generation
	healRes, err := sc.Run(healCfg, healFleet)
	if err != nil {
		return nil, err
	}
	hs := aud.Summary()
	st := lm.Status()
	promotions, rollbacks := 0, 0
	for _, ev := range reg.History() {
		switch ev.Event {
		case "promote":
			promotions++
		case "rollback":
			rollbacks++
		}
	}
	t.AddRow("self-healing lifecycle", f1(healRes.MeanFPS), f3(healRes.ViolationFraction),
		f1(hs.RMMAE), d0(int(hs.DriftAlarms)), d0(promotions), d0(rollbacks), d0(st.ActiveVersion))

	t.AddNote("drift alarm threshold %.0f FPS rolling RM MAE; colocated physics at 55%% of profile", audCfg.MAEThreshold)
	for _, ev := range reg.History() {
		if ev.Event == "promote" || ev.Event == "rollback" {
			t.AddNote("%s v%d: %s", ev.Event, ev.Version, ev.Note)
		}
	}
	if st.Generation > 0 {
		t.AddNote("serving handle swapped %d time(s) mid-run with zero dropped decisions", st.Generation)
	}
	return t, nil
}
