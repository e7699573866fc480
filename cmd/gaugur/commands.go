package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"gaugur/internal/baselines"
	"gaugur/internal/core"
	"gaugur/internal/experiments"
	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
	"gaugur/internal/profile"
	"gaugur/internal/sched"
	"gaugur/internal/sim"
	"gaugur/internal/stats"
)

// worldFlags name the simulated substrate and the artifacts profiled and
// trained on it. Every command declares them through bindWorld, so a flag
// means one thing, with one default, everywhere.
type worldFlags struct {
	catalogSeed, serverSeed          int64
	profiles, model, registry, games string
}

// bindWorld declares the two substrate seeds on fs, plus each named world
// flag: "profiles", "model", "registry", "games".
func bindWorld(fs *flag.FlagSet, names ...string) *worldFlags {
	w := &worldFlags{}
	fs.Int64Var(&w.catalogSeed, "catalog-seed", 42, "catalog generation seed")
	fs.Int64Var(&w.serverSeed, "server-seed", 7, "measurement noise seed")
	for _, name := range names {
		switch name {
		case "profiles":
			fs.StringVar(&w.profiles, name, "profiles.json", "profile set path")
		case "model":
			fs.StringVar(&w.model, name, "model.gob", "trained predictor path")
		case "registry":
			fs.StringVar(&w.registry, name, "", "model registry directory; serves its active version instead of -model")
		case "games":
			fs.StringVar(&w.games, name, "", "comma-separated game names or ids")
		default:
			panic("gaugur: no world flag " + name)
		}
	}
	return w
}

// parse parses args into fs and requires -games of a command that takes it.
func (w *worldFlags) parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.Lookup("games") != nil && w.games == "" {
		return fmt.Errorf("%s: -games is required", fs.Name())
	}
	return nil
}

// lab rebuilds the simulated substrate and loads profiles. The catalog seed
// must match the one used at profiling time; the profile file itself is the
// only trained artifact, the catalog is the "hardware".
func (w *worldFlags) lab() (*core.Lab, error) {
	f, err := os.Open(w.profiles)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set, err := profile.LoadSet(f)
	if err != nil {
		return nil, err
	}
	return core.NewLab(sim.NewServer(w.serverSeed), sim.NewCatalog(w.catalogSeed), set)
}

// load rebuilds the world the flags name: the lab, the serving model wired
// to reg, and the -games mix when the command takes one.
func (w *worldFlags) load(reg *obs.Registry) (*core.Lab, *core.Predictor, []int, error) {
	lab, err := w.lab()
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := loadServingModel(lab, w.model, w.registry, reg)
	if err != nil || w.games == "" {
		return lab, p, nil, err
	}
	ids, err := resolveGames(lab, w.games)
	return lab, p, ids, err
}

// bindStream declares the churn stream's flags on fs with the command's
// defaults; a zero default leaves that flag to the command.
func bindStream(fs *flag.FlagSet, def experiments.Churn) *experiments.Churn {
	c := &def
	fs.IntVar(&c.Servers, "servers", def.Servers, "fleet size")
	if def.Sessions != 0 {
		fs.IntVar(&c.Sessions, "sessions", def.Sessions, "total session arrivals")
	}
	fs.Float64Var(&c.Load, "load", def.Load, "target fleet load (fraction of slot capacity)")
	fs.Float64Var(&c.Duration, "duration", def.Duration, "mean session duration (time units)")
	if def.Seed != 0 {
		fs.Int64Var(&c.Seed, "seed", def.Seed, "simulation seed")
	}
	return c
}

func cmdProfile(args []string) error {
	fs := newFlagSet("profile")
	w := bindWorld(fs)
	fs.Lookup("catalog-seed").Usage = "catalog generation seed (the simulated hardware)"
	out := fs.String("out", "profiles.json", "output path for the profile set")
	k := fs.Int("k", profile.DefaultK, "pressure sampling granularity")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar, and pprof on this address during profiling")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint open this long after profiling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, tracer, stopMetrics, err := startMetrics(*metricsAddr, w.catalogSeed)
	if err != nil {
		return err
	}

	catalog := sim.NewCatalog(w.catalogSeed)
	server := sim.NewServer(w.serverSeed)
	server.SetMetrics(reg)
	pf := &profile.Profiler{Server: server, K: *k, Metrics: reg, Tracer: tracer}
	set, err := pf.ProfileCatalog(catalog)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := profile.SaveSet(f, set); err != nil {
		return err
	}
	fmt.Printf("profiled %d games (k=%d) -> %s\n", set.Len(), *k, *out)
	if reg != nil {
		snap := reg.Snapshot()
		fmt.Printf("metrics: %d games timed, %d benchmark runs, %d solo measurements\n",
			snap.Counters["gaugur_profile_games_total"],
			snap.Counters["gaugur_profile_bench_runs_total"],
			snap.Counters[`gaugur_sim_measurements_total{kind="solo"}`])
	}
	stopMetrics(*metricsHold)
	return nil
}

func cmdTrain(args []string) error {
	fs := newFlagSet("train")
	w := bindWorld(fs, "profiles")
	out := fs.String("out", "model.gob", "output path for the trained predictor")
	qos := fs.Float64("qos", 60, "QoS frame-rate floor for the CM labels")
	pairs := fs.Int("pairs", 500, "measured 2-game colocations")
	triples := fs.Int("triples", 100, "measured 3-game colocations")
	quads := fs.Int("quads", 100, "measured 4-game colocations")
	colocSeed := fs.Int64("coloc-seed", 99, "colocation sampling seed")
	rmKind := fs.String("rm", string(core.GBRT), "regression model kind (DTR, GBRT, RF, SVR)")
	cmKind := fs.String("cm", string(core.GBDT), "classification model kind (DTC, GBDT, RF, SVC)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar, pprof, and /debug/traces on this address during measurement + training")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint open this long after training")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, tracer, stopMetrics, err := startMetrics(*metricsAddr, *colocSeed)
	if err != nil {
		return err
	}

	lab, err := w.lab()
	if err != nil {
		return err
	}
	lab.Server.SetMetrics(reg)
	lab.Tracer = tracer
	plan := core.ColocationPlan{Pairs: *pairs, Triples: *triples, Quads: *quads}
	colocs := core.RandomColocations(lab.Catalog, plan, *colocSeed)
	samples := lab.CollectSamples(colocs, *qos, profile.DefaultK)
	fmt.Printf("measured %d colocations -> %d training samples\n", len(colocs), samples.Len())

	p, err := core.Train(lab.Profiles, core.TrainConfig{
		Samples:  samples,
		RMKind:   core.RegressorKind(*rmKind),
		CMKind:   core.ClassifierKind(*cmKind),
		Seed:     1,
		EncoderK: profile.DefaultK,
		Metrics:  reg,
		Tracer:   tracer,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		return err
	}
	fmt.Printf("trained %s + %s (QoS %.0f FPS) -> %s\n", *rmKind, *cmKind, *qos, *out)
	reportCompileTime(reg)
	stopMetrics(*metricsHold)
	return nil
}

// parseColocation parses "Dota2@1920x1080,Far Cry4@1280x720"; a missing
// @resolution defaults to 1080p.
func parseColocation(lab *core.Lab, spec string) (core.Colocation, error) {
	var c core.Colocation
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, res := part, core.ReferenceResolution
		if at := strings.LastIndex(part, "@"); at >= 0 {
			name = strings.TrimSpace(part[:at])
			var w, h int
			if _, err := fmt.Sscanf(part[at+1:], "%dx%d", &w, &h); err != nil {
				return nil, fmt.Errorf("bad resolution in %q", part)
			}
			res = sim.Resolution{Width: w, Height: h}
		}
		g := lab.Catalog.Get(name)
		if g == nil {
			return nil, fmt.Errorf("unknown game %q", name)
		}
		c = append(c, core.Workload{GameID: g.ID, Res: res})
	}
	if len(c) == 0 {
		return nil, fmt.Errorf("empty colocation spec")
	}
	return c, nil
}

// reportCompileTime prints the model-compile stage timing accumulated in
// reg — the cost of lowering the fitted ensembles into compiled inference
// plans. Train, pack, and dispatch call it so the one-time compile cost is
// visible next to the numbers it buys; no registry, no line.
func reportCompileTime(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h, ok := reg.Snapshot().Histograms[`gaugur_stage_seconds{stage="model-compile"}`]
	if !ok || h.Count == 0 {
		return
	}
	fmt.Printf("metrics: model compile %.3gs across %d lowering(s)\n", h.Sum, h.Count)
}

// loadPredictor reads a saved predictor and wires it to reg (nil
// disables). Metrics are enabled before the explicit re-Compile so the
// gaugur_stage_seconds{stage="model-compile"} histogram observes the plan
// lowering that LoadPredictor's own (pre-metrics) compile already did —
// Compile is idempotent, and the double lowering costs microseconds.
func loadPredictor(lab *core.Lab, path string, reg *obs.Registry) (*core.Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := core.LoadPredictor(f, lab.Profiles)
	if err != nil {
		return nil, err
	}
	return p.EnableMetrics(reg).Compile(), nil
}

func cmdPredict(args []string) error {
	fs := newFlagSet("predict")
	w := bindWorld(fs, "profiles", "model")
	coloc := fs.String("coloc", "", "colocation, e.g. \"Dota2@1920x1080,Far Cry4\"")
	verify := fs.Bool("verify", false, "also run the colocation on the simulator and print measured FPS")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coloc == "" {
		return fmt.Errorf("predict: -coloc is required")
	}
	lab, p, _, err := w.load(nil)
	if err != nil {
		return err
	}
	c, err := parseColocation(lab, *coloc)
	if err != nil {
		return err
	}

	var measured []float64
	if *verify {
		measured = lab.Measure(c)
	}
	fmt.Printf("%-28s %-10s %9s %9s %6s", "game", "res", "solo", "predFPS", "QoS")
	if *verify {
		fmt.Printf(" %9s", "measured")
	}
	fmt.Println()
	for i, w := range c {
		prof := lab.Profiles.Get(w.GameID)
		verdict := "FAIL"
		if p.SatisfiesQoS(c, i) {
			verdict = "ok"
		}
		fmt.Printf("%-28s %-10s %9.1f %9.1f %6s", prof.Name, w.Res, prof.SoloFPS(w.Res), p.PredictFPS(c, i), verdict)
		if *verify {
			fmt.Printf(" %9.1f", measured[i])
		}
		fmt.Println()
	}
	if p.FeasibleCM(c) {
		fmt.Printf("colocation judged FEASIBLE at QoS %.0f FPS\n", p.QoS)
	} else {
		fmt.Printf("colocation judged INFEASIBLE at QoS %.0f FPS\n", p.QoS)
	}
	return nil
}

// resolveGames maps a comma-separated name list (or "ten:SEED" shorthand)
// to game IDs.
func resolveGames(lab *core.Lab, spec string) ([]int, error) {
	var ids []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if id, err := strconv.Atoi(part); err == nil {
			if id < 0 || id >= lab.Catalog.Len() {
				return nil, fmt.Errorf("game id %d out of range", id)
			}
			ids = append(ids, id)
			continue
		}
		g := lab.Catalog.Get(part)
		if g == nil {
			return nil, fmt.Errorf("unknown game %q", part)
		}
		ids = append(ids, g.ID)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no games given")
	}
	sort.Ints(ids)
	return ids, nil
}

func cmdPack(args []string) error {
	fs := newFlagSet("pack")
	w := bindWorld(fs, "profiles", "model", "games")
	requests := fs.Int("requests", 5000, "gaming requests to pack")
	maxSize := fs.Int("max-size", 4, "maximum colocation size")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar, pprof, and /debug/traces on this address during packing")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint open this long after packing")
	if err := w.parse(fs, args); err != nil {
		return err
	}
	reg, tracer, stopMetrics, err := startMetrics(*metricsAddr, w.catalogSeed)
	if err != nil {
		return err
	}
	_, p, ids, err := w.load(reg)
	if err != nil {
		return err
	}

	var root trace.Root
	tracer.StartRoot(&root, 0, "pack")
	start := tracer.Now()
	subsets := sched.EnumerateSubsets(ids, *maxSize)
	var feasible []sched.ColocSet
	for _, s := range subsets {
		if p.FeasibleCM(s.Colocation()) {
			feasible = append(feasible, s)
		}
	}
	filtered := tracer.Now()
	root.Child(0, "filter-feasible", start, filtered,
		trace.Int("candidates", len(subsets)), trace.Int("feasible", len(feasible)))
	demand := sched.SpreadRequests(ids, *requests, nil)
	res := sched.PackRequests(feasible, demand)
	root.Child(0, "pack-requests", filtered, tracer.Now(), trace.Int("servers", res.NumServers()))
	root.End(trace.Int("games", len(ids)), trace.Int("requests", *requests))
	fmt.Printf("games=%d candidate colocations=%d judged feasible=%d\n", len(ids), len(subsets), len(feasible))
	fmt.Printf("packed %d requests onto %d servers (no-colocation policy would use %d)\n",
		*requests, res.NumServers(), *requests)
	if res.Unplaceable > 0 {
		fmt.Printf("%d requests had no feasible colocation and run on dedicated servers\n", res.Unplaceable)
	}
	reportCompileTime(reg)
	stopMetrics(*metricsHold)
	return nil
}

func cmdDispatch(args []string) error {
	fs := newFlagSet("dispatch")
	w := bindWorld(fs, "profiles", "model", "registry", "games")
	requests := fs.Int("requests", 5000, "gaming requests to dispatch")
	servers := fs.Int("servers", 2000, "fleet size")
	compare := fs.Bool("compare", false, "also dispatch with Sigmoid, SMiTe, and worst-fit VBP")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar, pprof, and /debug/traces on this address during dispatch")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint open this long after dispatch")
	if err := w.parse(fs, args); err != nil {
		return err
	}
	reg, tracer, stopMetrics, err := startMetrics(*metricsAddr, w.catalogSeed)
	if err != nil {
		return err
	}
	lab, p, ids, err := w.load(reg)
	if err != nil {
		return err
	}
	demand := sched.SpreadRequests(ids, *requests, nil)
	stream := sched.ExpandRequests(demand)

	run := func(name string, sc sched.Scorer) error {
		var root trace.Root
		tracer.StartRoot(&root, 0, "dispatch")
		d := &sched.Dispatcher{NumServers: *servers, MaxPerServer: 4, Score: sc}
		fleet, err := d.Assign(stream)
		if err != nil {
			root.End(trace.String("scorer", name), trace.Int("requests", len(stream)), trace.String("outcome", "error"))
			return err
		}
		fps := sched.EvaluateFleet(lab, fleet)
		root.End(trace.String("scorer", name), trace.Int("requests", len(stream)),
			trace.Int("servers", len(fleet)), trace.Float("avg_fps", stats.Mean(fps)))
		fmt.Printf("%-12s avg FPS %6.1f  (p10 %.1f, p50 %.1f, p90 %.1f) on %d servers\n",
			name, stats.Mean(fps), pctl(fps, 0.1), pctl(fps, 0.5), pctl(fps, 0.9), len(fleet))
		return nil
	}
	// GAugur scores through the batch API: one buffer set per candidate
	// colocation instead of per-index allocations.
	if err := run("GAugur(RM)", func(games []int) float64 {
		return p.PredictTotalFPS(core.ColocationOf(games))
	}); err != nil {
		return err
	}
	if *compare {
		train := core.RandomColocations(lab.Catalog, core.PaperPlan, 99)[:400]
		sg := baselines.NewSigmoid(lab.Profiles, p.QoS)
		if err := sg.Fit(lab, train); err != nil {
			return err
		}
		if err := run("Sigmoid", sched.TotalFPS(sg.PredictFPS, 0)); err != nil {
			return err
		}
		sm := baselines.NewSMiTe(lab.Profiles, p.QoS)
		if err := sm.Fit(lab, train); err != nil {
			return err
		}
		if err := run("SMiTe", sched.TotalFPS(sm.PredictFPS, 0)); err != nil {
			return err
		}
		vbp := baselines.NewVBP(lab.Profiles)
		demandOf := func(g int) float64 {
			return 5 - vbp.RemainingCapacity(core.ColocationOf([]int{g}))
		}
		fleet, err := sched.WorstFit(stream, *servers, 4, 5, demandOf)
		if err != nil {
			return err
		}
		fps := sched.EvaluateFleet(lab, fleet)
		fmt.Printf("%-12s avg FPS %6.1f  (p10 %.1f, p50 %.1f, p90 %.1f) on %d servers\n",
			"VBP", stats.Mean(fps), pctl(fps, 0.1), pctl(fps, 0.5), pctl(fps, 0.9), len(fleet))
	}
	reportCompileTime(reg)
	stopMetrics(*metricsHold)
	return nil
}

func pctl(xs []float64, p float64) float64 {
	return stats.NewCDF(xs).InverseAt(p)
}
