package main

import (
	"fmt"

	"gaugur/internal/experiments"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// cmdFleet drives a flash-crowd arrival stream through the sharded
// dispatch plane: k-choices balancing across per-shard dispatchers, against
// the trained predictor.
func cmdFleet(args []string) error {
	fs := newFlagSet("fleet")
	w := bindWorld(fs, "profiles", "model", "games")
	ch := bindStream(fs, experiments.Churn{Servers: 10000, Load: 0.55, Duration: 8})
	fs.Lookup("load").Usage = "base offered load (fraction of slot capacity)"
	shards := fs.Int("shards", 16, "shard count (1 = flat full scan)")
	k := fs.Int("k", 2, "shards sampled per arrival (power-of-k-choices)")
	crowdAt := fs.Float64("crowd-at", 10, "flash crowd start (time units)")
	crowdDur := fs.Float64("crowd-duration", 5, "flash crowd duration")
	crowdX := fs.Float64("crowd-factor", 3.5, "flash crowd rate multiplier (<= 1 disables)")
	horizon := fs.Float64("horizon", 24, "simulated duration (time units)")
	seed := fs.Int64("seed", 17, "balancer seed (shard sampling)")
	workSeed := fs.Int64("workload-seed", 29, "arrival stream seed")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar, and pprof on this address during the run")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint open this long after the run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := w.parse(fs, args); err != nil {
		return err
	}
	reg, tracer, stopMetrics, err := startMetrics(*metricsAddr, *seed)
	if err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	_, p, ids, err := w.load(reg)
	if err != nil {
		return err
	}

	c, err := fleet.New(fleet.Config{
		NumServers:   ch.Servers,
		ShardCount:   *shards,
		MaxPerServer: experiments.MaxPerServer,
		K:            *k,
		Seed:         *seed,
		Scorer:       fleet.NewPredictorScorer(p),
		Metrics:      reg,
		Tracer:       tracer,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	ch.Seed = sim.DeriveSeed(*workSeed, "fleet-drive", 0)
	cfg := ch.Stream(ids)
	cfg.Horizon, cfg.Metrics, cfg.Tracer = *horizon, reg, tracer
	fmt.Printf("%d servers in %d shards, k=%d, base load %.0f%%", ch.Servers, *shards, *k, 100*ch.Load)
	if *crowdX > 1 {
		cfg.Peaks = []sim.CrowdPeak{{At: *crowdAt, Duration: *crowdDur, Factor: *crowdX}}
		fmt.Printf(", flash crowd x%.1f at t=%.0f for %.0f", *crowdX, *crowdAt, *crowdDur)
	}
	fmt.Println()

	// A nil evaluator: this run reads admission counts, not realised FPS.
	res, err := sched.RunOnline(cfg, c, nil, 0)
	if err != nil {
		return err
	}
	st := c.Stats()
	fmt.Printf("arrivals %d  placed %d  rejected %d  peak active %d  mean ΔFPS %.1f\n",
		st.Placed+st.Rejected, st.Placed, st.Rejected, st.PeakActive, res.MeanDelta)
	fmt.Printf("escapes %d\n", st.Escapes)
	fmt.Printf("score probes %d  state groups scanned %d  cache misses %d\n",
		st.ScoreProbes, st.Scanned, st.CacheMisses)
	stopProfiles()
	stopMetrics(*metricsHold)
	return nil
}
