package experiments

import (
	"gaugur/internal/core"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
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
	sc := env.churnScenario()
	sc.Faults = FaultMix(29, sc.Servers, 0.02, 0.05, 0.35, 0.15)
	fs, err := sc.Schedule()
	if err != nil {
		return nil, err
	}

	// Every greedy row uses the QoS-aware clipped scorer from ExtChurn — its
	// best policy there, and the one whose placements least need rescuing.
	greedy := sc.Greedy(sched.TotalFPS(p.PredictFPS, qosAwareCap(qos)))
	// The fallback row scores placements through the full degradation
	// chain; dropout transitions trip and release its circuit breaker.
	fb := core.NewFallbackPredictor(p, env.Profiles, qos, core.BreakerConfig{})
	fbCfg := sc.Faulted(fs, true, 1)
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
		{"GAugur greedy, no faults", sc.Stream, greedy},
		{"GAugur greedy + migration + watchdog", sc.Faulted(fs, true, 1), greedy},
		{"GAugur greedy + fallback chain", fbCfg, sc.Greedy(sched.TotalFPS(fbScore, qosAwareCap(qos)))},
		{"GAugur greedy, migration disabled", sc.Faulted(fs, false, 1), greedy},
		{"least-loaded + migration", sc.Faulted(fs, true, 1), sc.LeastLoaded()},
	}
	for _, r := range rows {
		res, err := sc.Run(r.cfg, r.fleet)
		if err != nil {
			return nil, err
		}
		t.AddRow(r.name, f1(res.MeanFPS), f3(res.ViolationFraction),
			d0(res.Migrated), d0(res.Dropped), f3(res.MeanTimeToRecover), d0(res.Rejected))
	}
	t.AddNote("schedule (seed 29): %d crashes, %d spikes, %d prediction dropouts over %d servers", fs.Crashes, fs.Spikes, fs.Dropouts, sc.Servers)
	t.AddNote("fallback chain served %d queries from the model, %d from the capacity stage", fb.Served["model"], fb.Served["capacity"])
	return t, nil
}
