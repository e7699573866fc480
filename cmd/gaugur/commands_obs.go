package main

import (
	"fmt"
	"time"

	"gaugur/internal/core"
	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// startMetrics starts the runtime observability endpoint when addr is
// non-empty: /metrics (Prometheus), /metrics.json, /debug/vars (expvar),
// /debug/pprof, and /debug/traces. It returns the registry and tracer to
// instrument with (both nil when disabled) and a stop function that
// optionally holds the endpoint open before draining it gracefully. The
// tracer's ID stream derives from the command's simulation seed so a rerun
// names its traces identically.
func startMetrics(addr string, seed int64) (*obs.Registry, *trace.Tracer, func(hold time.Duration), error) {
	if addr == "" {
		return nil, nil, func(time.Duration) {}, nil
	}
	reg := obs.New()
	tracer := trace.New(trace.Config{Seed: sim.DeriveSeed(seed, "trace", 0)})
	th := trace.Handler(tracer.Store())
	srv, err := obs.StartServer(addr, reg,
		obs.Mount{Pattern: "/debug/traces", Handler: th},
		obs.Mount{Pattern: "/debug/traces/", Handler: th},
	)
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("metrics: serving /metrics /metrics.json /debug/vars /debug/pprof /debug/traces on http://%s\n", srv.Addr())
	stop := func(hold time.Duration) {
		if hold > 0 {
			fmt.Printf("metrics: holding endpoint open for %s\n", hold)
			time.Sleep(hold)
		}
		// Graceful drain with a bounded wait; Shutdown falls back to a hard
		// Close internally if scrapes are still in flight at the deadline.
		_ = srv.Shutdown(2 * time.Second)
	}
	return reg, tracer, stop, nil
}

// demoEval is the synthetic ground truth serve-metrics drives: each session
// starts from a per-game solo rate and loses frame rate per cohabitant.
// Pure and deterministic, so the demo needs no profiles or trained model.
func demoEval(games []int) []float64 {
	out := make([]float64, len(games))
	for i, g := range games {
		solo := 90 + float64(g%7)*5
		out[i] = solo - 22*float64(len(games)-1)
	}
	return out
}

// demoSpikeEval folds extra noisy-neighbor load into demoEval.
func demoSpikeEval(games []int, extra sim.Vector) []float64 {
	load := 0.0
	for _, v := range extra {
		load += v
	}
	out := demoEval(games)
	for i := range out {
		out[i] *= 1 / (1 + load)
	}
	return out
}

// cmdServeMetrics stands up the observability endpoint and drives an
// instrumented, fault-injected churn workload against a synthetic substrate
// so every dashboard has live data — no profiles or trained model needed.
func cmdServeMetrics(args []string) error {
	fs := newFlagSet("serve-metrics")
	addr := fs.String("addr", "127.0.0.1:9090", "listen address for the metrics endpoint (host:0 picks a port)")
	rounds := fs.Int("rounds", 3, "instrumented churn rounds to drive (0 serves an idle registry)")
	servers := fs.Int("servers", 50, "fleet size per round")
	sessions := fs.Int("sessions", 2000, "session arrivals per round")
	seed := fs.Int64("seed", 13, "simulation seed (advanced per round)")
	hold := fs.Duration("hold", 0, "keep serving this long after the rounds finish")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg, tracer, stop, err := startMetrics(*addr, *seed)
	if err != nil {
		return err
	}

	score := func(g []int) float64 {
		s := 0.0
		for _, f := range demoEval(g) {
			s += f
		}
		return s
	}
	// Audit the demo predictor against the demo substrate so the quality
	// gauges and /debug/traces have live data too.
	aud := core.NewAuditorFunc(func(games []int, idx int) (float64, bool) {
		fps := demoEval(games)[idx]
		return fps, fps >= 60
	}, 60, core.AuditorConfig{Metrics: reg})
	const maxPer = 4
	for round := 0; round < *rounds; round++ {
		cfg := sched.OnlineConfig{
			ArrivalRate:  0.85 * float64(*servers) * maxPer / 6,
			MeanDuration: 6,
			Sessions:     *sessions,
			GameIDs:      []int{0, 1, 2, 3, 4, 5, 6},
			Seed:         *seed + int64(round),
			Metrics:      reg,
			Tracer:       tracer,
			Audit:        aud,
			SpikeEval:    demoSpikeEval,
			Faults: sim.GenerateFaults(sim.FaultConfig{
				Seed:       *seed + 100 + int64(round),
				Horizon:    float64(*sessions) / (0.85 * float64(*servers) * maxPer / 6),
				NumServers: *servers,
				CrashRate:  0.01 * float64(*servers), CrashDowntime: 2,
				SpikeRate: 0.02 * float64(*servers), SpikeDuration: 3, SpikeMagnitude: 0.3,
			}),
			WatchdogWindow:  1,
			ShedUtilization: 0.97,
		}
		res, err := sched.RunChurn(cfg, fleet.Config{
			NumServers: *servers, MaxPerServer: maxPer, Scorer: fleet.ScorerFunc(score), Tracer: tracer,
		}, demoEval, 60)
		if err != nil {
			return err
		}
		fmt.Printf("round %d: mean FPS %.1f  migrated %d  dropped %d  shed %d\n",
			round, res.MeanFPS, res.Migrated, res.Dropped, res.Shed)
	}
	snap := reg.Snapshot()
	fmt.Printf("registry: %d placements, %d migrations, %d crashes, %d placement spans\n",
		snap.Counters["gaugur_sched_placements_total"],
		snap.Counters["gaugur_sched_migrations_total"],
		snap.Counters["gaugur_sched_crashes_total"],
		snap.Histograms["gaugur_sched_place_seconds"].Count)
	if tracer != nil {
		fmt.Printf("traces: %d retained (%d recorded), audit: %d resolved, rolling MAE %.2f FPS\n",
			tracer.Store().Len(), tracer.Store().Total(),
			aud.Summary().Resolved, aud.Summary().RMMAE)
	}
	stop(*hold)
	return nil
}
