package main

import (
	"fmt"
	"time"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
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

// demoEval is the synthetic ground truth serve -demo and trace score with:
// each session starts from a per-game solo rate and loses frame rate per
// cohabitant. Pure and deterministic, so the demo needs no profiles or
// trained model.
func demoEval(games []int) []float64 {
	out := make([]float64, len(games))
	for i, g := range games {
		solo := 90 + float64(g%7)*5
		out[i] = solo - 22*float64(len(games)-1)
	}
	return out
}
