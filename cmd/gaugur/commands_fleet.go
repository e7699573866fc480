package main

import (
	"fmt"

	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// cmdFleet drives a flash-crowd arrival stream through the sharded
// dispatch plane: k-choices balancing across per-shard dispatchers, against
// the trained predictor.
func cmdFleet(args []string) error {
	fs := newFlagSet("fleet")
	catalogSeed := fs.Int64("catalog-seed", 42, "catalog generation seed")
	serverSeed := fs.Int64("server-seed", 7, "measurement noise seed")
	profiles := fs.String("profiles", "profiles.json", "profile set path")
	model := fs.String("model", "model.gob", "trained predictor path")
	games := fs.String("games", "", "comma-separated game names or ids")
	servers := fs.Int("servers", 10000, "fleet size")
	shards := fs.Int("shards", 16, "shard count (1 = flat full scan)")
	k := fs.Int("k", 2, "shards sampled per arrival (power-of-k-choices)")
	load := fs.Float64("load", 0.55, "base offered load (fraction of slot capacity)")
	crowdAt := fs.Float64("crowd-at", 10, "flash crowd start (time units)")
	crowdDur := fs.Float64("crowd-duration", 5, "flash crowd duration")
	crowdX := fs.Float64("crowd-factor", 3.5, "flash crowd rate multiplier (<= 1 disables)")
	horizon := fs.Float64("horizon", 24, "simulated duration (time units)")
	duration := fs.Float64("duration", 8, "mean session duration (time units)")
	seed := fs.Int64("seed", 17, "balancer seed (shard sampling)")
	workSeed := fs.Int64("workload-seed", 29, "arrival stream seed")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar, and pprof on this address during the run")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint open this long after the run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *games == "" {
		return fmt.Errorf("fleet: -games is required")
	}
	reg, tracer, stopMetrics, err := startMetrics(*metricsAddr, *seed)
	if err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	lab, err := loadWorld(*catalogSeed, *serverSeed, *profiles)
	if err != nil {
		return err
	}
	p, err := loadPredictor(lab, *model, reg)
	if err != nil {
		return err
	}
	ids, err := resolveGames(lab, *games)
	if err != nil {
		return err
	}

	const maxPer = 4
	c, err := fleet.New(fleet.Config{
		NumServers:   *servers,
		ShardCount:   *shards,
		MaxPerServer: maxPer,
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

	cfg := sched.OnlineConfig{
		ArrivalRate:  *load * float64(*servers) * maxPer / *duration,
		MeanDuration: *duration,
		Horizon:      *horizon,
		GameIDs:      ids,
		Seed:         sim.DeriveSeed(*workSeed, "fleet-drive", 0),
		Metrics:      reg,
		Tracer:       tracer,
	}
	fmt.Printf("%d servers in %d shards, k=%d, base load %.0f%%", *servers, *shards, *k, 100**load)
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
