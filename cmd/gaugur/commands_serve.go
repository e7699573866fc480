package main

import (
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gaugur/internal/obs"
	"gaugur/internal/obs/flight"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/serve"
	"gaugur/internal/sim"
)

// cmdServe runs the streaming admission front end: an HTTP/JSON (and
// optionally binary) API over the sharded fleet dispatcher, with the
// coalescing pipeline batching concurrent arrivals into full-width
// compiled-kernel calls. The obs surface (metrics, pprof, traces) rides
// the same mux.
func cmdServe(args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address (host:0 picks a port)")
	binAddr := fs.String("binary-addr", "", "also serve the length-prefixed binary protocol on this address")
	demo := fs.Bool("demo", false, "score with the synthetic demo physics instead of a trained model")
	w := bindWorld(fs, "profiles", "model")
	fs.Lookup("profiles").Usage = "profile set path (ignored with -demo)"
	fs.Lookup("model").Usage = "trained predictor path (ignored with -demo)"
	servers := fs.Int("servers", 1024, "fleet size")
	shards := fs.Int("shards", 8, "shard count")
	k := fs.Int("k", 2, "shards sampled per arrival")
	maxPer := fs.Int("max-per-server", 4, "colocation cap per server")
	seed := fs.Int64("seed", 17, "balancer seed")
	window := fs.Int("batch-window", 16, "max arrivals coalesced per dispatch (1 = singleton submission)")
	delay := fs.Duration("batch-delay", 200*time.Microsecond, "how long an admit batch waits to fill (0 = drain-only); a leave opening a batch never waits")
	queueCap := fs.Int("queue-cap", 256, "admission queue bound (full queue answers 429)")
	lanes := fs.Int("lanes", 1, "parallel admission lanes (1 = the deterministic single-collector pipeline)")
	duration := fs.Duration("duration", 0, "serve this long then drain (0 = until SIGINT/SIGTERM)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at drain to this file")
	traceSample := fs.Float64("trace-sample", 0.01, "tail-sampling baseline keep rate; errors and slow traces are always kept (>= 1 keeps everything)")
	traceSlowQ := fs.Float64("trace-slow-quantile", 0.99, "duration quantile above which traces are always kept")
	traceCap := fs.Int("trace-cap", trace.DefaultCapacity, "retained-trace ring size")
	flightCap := fs.Int("flight-cap", flight.DefaultCapacity, "flight-recorder event ring size")
	flightOut := fs.String("flightrec-out", "flightrecorder.json", "file SIGQUIT dumps the flight recorder to (the server keeps serving)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := obs.New()
	// One clock — the registry's — behind the tracer and the flight
	// recorder too, so histograms, spans and events share timestamps.
	clock := reg.Now
	var tail *trace.TailPolicy
	if *traceSample < 1 {
		tail = &trace.TailPolicy{Rate: *traceSample, SlowQuantile: *traceSlowQ}
	}
	tracer := trace.New(trace.Config{
		Seed:     sim.DeriveSeed(*seed, "trace", 0),
		Clock:    clock,
		Capacity: *traceCap,
		Tail:     tail,
	})
	rec := flight.New(*flightCap, clock)

	var scorer fleet.BatchScorer
	// knownGame stays nil under -demo: the demo physics scores any id. The
	// predictor can only score a profiled game, so anything else is refused
	// at the admission boundary instead of reaching a shard.
	var knownGame func(game int) bool
	if *demo {
		scorer = fleet.ScorerFunc(func(games []int) float64 {
			total := 0.0
			for _, fps := range demoEval(games) {
				total += fps
			}
			return total
		})
	} else {
		_, p, _, err := w.load(reg)
		if err != nil {
			return err
		}
		scorer = fleet.NewPredictorScorer(p)
		knownGame = func(game int) bool { return p.Profiles.Get(game) != nil }
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}

	c, err := fleet.New(fleet.Config{
		NumServers:   *servers,
		ShardCount:   *shards,
		MaxPerServer: *maxPer,
		K:            *k,
		Seed:         *seed,
		Scorer:       scorer,
		Metrics:      reg,
		Tracer:       tracer,
		Flight:       rec,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	pipe, err := serve.NewPipeline(serve.PipelineConfig{
		Cluster:     c,
		KnownGame:   knownGame,
		Lanes:       *lanes,
		BatchWindow: *window,
		BatchDelay:  *delay,
		QueueCap:    *queueCap,
		Metrics:     reg,
		Tracer:      tracer,
		Flight:      rec,
	})
	if err != nil {
		return err
	}
	th := trace.TracerHandler(tracer)
	srv, err := serve.NewServer(serve.ServerConfig{
		Pipeline: pipe,
		Registry: reg,
		Extra: []obs.Mount{
			{Pattern: "/debug/traces", Handler: th},
			{Pattern: "/debug/traces/", Handler: th},
			{Pattern: "/debug/flightrecorder", Handler: flight.Handler(rec, tracer, 16)},
		},
	})
	if err != nil {
		return err
	}
	if err := srv.Start(*addr); err != nil {
		return err
	}
	fmt.Printf("admission API + obs surface on http://%s (lanes %d, batch window %d, delay %s, queue %d)\n",
		srv.Addr(), pipe.Lanes(), *window, *delay, *queueCap)
	if *binAddr != "" {
		if err := srv.StartBinary(*binAddr); err != nil {
			return err
		}
		fmt.Printf("binary admission protocol on %s\n", srv.BinaryAddr())
	}

	// SIGQUIT dumps the flight recorder to disk and keeps serving — the
	// "what just happened" escape hatch for a live incident.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			if err := dumpFlight(*flightOut, rec, tracer); err != nil {
				fmt.Printf("flight-recorder dump failed: %v\n", err)
				continue
			}
			fmt.Printf("flight recorder dumped to %s (still serving)\n", *flightOut)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-time.After(*duration):
			fmt.Println("duration elapsed, draining")
		case s := <-sig:
			fmt.Printf("%s, draining\n", s)
		}
	} else {
		fmt.Println("serving until SIGINT/SIGTERM")
		s := <-sig
		fmt.Printf("%s, draining\n", s)
	}
	signal.Stop(sig)
	signal.Stop(quit)

	if err := srv.Shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	stopProfiles()
	st := pipe.Stats()
	summary, err := drainSummary(st, fleet.CheckInvariants(c))
	if err != nil {
		return err
	}
	fmt.Println(summary)
	fmt.Printf("escapes %d  score probes %d  cache misses %d\n",
		st.Escapes, st.ScoreProbes, st.CacheMisses)
	fmt.Printf("flight recorder: %d events (%d dropped)  traces kept %d of %d\n",
		rec.Total(), rec.Dropped(), tracer.Store().Len(), tracer.Store().Total())
	return nil
}

// drainSummary words the line `gaugur serve` ends on, from the fleet's
// counters and what fleet.CheckInvariants found on the quiescent cluster. A
// broken invariant is the only error. Sessions still placed are not one — a
// server may be stopped while clients play — but only an empty, sound fleet
// reads "drained clean", which is what `make serve-smoke` greps for.
func drainSummary(st fleet.Stats, invariants error) (string, error) {
	if invariants != nil {
		return "", fmt.Errorf("serve: cluster unsound after drain: %w", invariants)
	}
	head := "drained clean:"
	if st.Active != 0 {
		head = fmt.Sprintf("drained: %d sessions still active:", st.Active)
	}
	return fmt.Sprintf("%s placed %d  rejected %d  removed %d", head, st.Placed, st.Rejected, st.Removed), nil
}

// dumpFlight writes a flight-recorder snapshot (event ring + last kept
// traces + sampler ledger) as indented JSON.
func dumpFlight(path string, rec *flight.Recorder, tracer *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := flight.WriteDump(f, flight.Snapshot(rec, tracer, 16)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cmdLoadgen replays a sim.FlashCrowd arrival trace against a running
// admission server, over the wire, and reports admission latency
// percentiles and placements/sec.
func cmdLoadgen(args []string) error {
	fs := newFlagSet("loadgen")
	target := fs.String("target", "http://127.0.0.1:8080", "server base URL (or host:port with -binary)")
	binaryProto := fs.Bool("binary", false, "use the length-prefixed binary protocol")
	rps := fs.Float64("rps", 500, "base arrival rate (requests/sec, simulated time)")
	crowdAt := fs.Float64("crowd-at", 2, "flash crowd start (seconds)")
	crowdDur := fs.Float64("crowd-duration", 2, "flash crowd duration (seconds)")
	crowdX := fs.Float64("crowd-factor", 3, "flash crowd rate multiplier (<= 1 disables)")
	horizon := fs.Float64("horizon", 8, "trace duration (simulated seconds)")
	timeScale := fs.Float64("time-scale", 1, "simulated seconds per wall second (2 = replay twice as fast)")
	hold := fs.Float64("hold", 4, "mean session lifetime (simulated seconds, 0 = stay until the end)")
	gameIDs := fs.String("game-ids", "0,1,2,3,4,5,6,7,8,9", "comma-separated game ids to draw arrivals from")
	workers := fs.Int("workers", 32, "concurrent in-flight requests (with -binary, one persistent connection each)")
	seed := fs.Int64("seed", 23, "arrival trace seed")
	traced := fs.Bool("trace", true, "propagate a deterministic per-arrival trace id (the n-th arrival always carries the same id for a given seed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	games, err := parseIntList(*gameIDs)
	if err != nil {
		return fmt.Errorf("loadgen: -game-ids: %w", err)
	}

	crowd := sim.FlashCrowd{Base: *rps}
	if *crowdX > 1 {
		crowd.Peaks = []sim.CrowdPeak{{At: *crowdAt, Duration: *crowdDur, Factor: *crowdX}}
	}
	fmt.Printf("replaying %.0f rps for %.0fs against %s", *rps, *horizon, *target)
	if *crowdX > 1 {
		fmt.Printf(", flash crowd x%.1f at t=%.0fs for %.0fs", *crowdX, *crowdAt, *crowdDur)
	}
	fmt.Println()

	res, err := serve.RunLoadGen(serve.LoadGenConfig{
		Target:    *target,
		Binary:    *binaryProto,
		Crowd:     crowd,
		Horizon:   *horizon,
		TimeScale: *timeScale,
		MeanHold:  *hold,
		Games:     games,
		Seed:      *seed,
		Workers:   *workers,
		Trace:     *traced,
	})
	if err != nil {
		return err
	}
	fmt.Println(res)
	if res.Errors > 0 {
		return fmt.Errorf("loadgen: %d requests errored", res.Errors)
	}
	return nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty id list")
	}
	return out, nil
}
