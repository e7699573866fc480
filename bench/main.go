// Command bench is the repo's one benchmark: four workloads against the
// admission path a client exercises (wire -> pipeline -> fleet -> core),
// end-to-end metrics with tracing off, per-layer metrics from a traced
// pass and a sequential ladder, output checks on every pass. README.md in
// this directory is the glossary.
//
//	go run ./bench                                   # everything, 3 repetitions per workload
//	go run ./bench -workload wire_http -trace 0      # one workload, end-to-end only
//	go run ./bench -compare a/results.json b/results.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	reps     int
	out      string
	role     string
	model    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the program only ever sees generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per repetition")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only, -1: both")
	flag.IntVar(&o.reps, "reps", 0, "untraced repetitions per workload (default 3, or 1 with -workload)")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for results.json and trace_<workload>.json")
	compare := flag.Bool("compare", false, "compare two results.json files: -compare A.json B.json")
	flag.StringVar(&o.role, "role", "", "internal: child process role")
	flag.StringVar(&o.model, "model", "", "internal: saved predictor path")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case o.role != "":
		err = child(o)
	default:
		var ok bool
		ok, err = parent(o)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// Pass lengths. The untraced repetitions are never shortened; the traced
// side scales with -seconds so a 10 s run spends about as long on it as on
// one repetition.
const (
	warmShare         = 0.3  // warm-up before a repetition, as a share of -seconds
	layerPassShare    = 0.4  // the untraced and the traced pass of a per-layer run
	variantBurstShare = 0.02 // one burst of the interleaved variant comparison
	variantRounds     = 10
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// child runs one role in a fresh process and prints one JSON value, so
// heap and GC state never leak between repetitions or workloads and the
// peak RSS is the repetition's own.
func child(o options) error {
	var v any
	switch o.role {
	case "setup":
		t, err := buildModel(o.model)
		if err != nil {
			return err
		}
		v = t
	case "rep", "layers":
		wl := findWorkload(o.workload)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		m, err := loadModel(o.model)
		if err != nil {
			return err
		}
		if o.role == "rep" {
			v, _, err = runPass(m, passConfig{wl: wl, seed: o.seed, warm: secs(o.seconds * warmShare), dur: secs(o.seconds)})
		} else {
			v, err = layers(m, wl, o)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown role %q", o.role)
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}

// layers is the per-layer run of one workload: an untraced and a traced
// concurrent pass (their difference is the tracing overhead), the
// sequential ladder, and the interleaved pairs.
func layers(m *model, wl *workload, o options) (*repResult, error) {
	pc := passConfig{wl: wl, seed: o.seed, warm: secs(o.seconds * warmShare / 2), dur: secs(o.seconds * layerPassShare)}
	bare, _, err := runPass(m, pc)
	if err != nil {
		return nil, err
	}
	pc.traced = true
	res, r, err := runPass(m, pc)
	if err != nil {
		return nil, err
	}
	res.Errors = append(res.Errors, bare.Errors...)
	if err := r.writeTrace(filepath.Join(o.out, "trace_"+wl.name+".json")); err != nil {
		return nil, err
	}
	res.Layer["trace.overhead_pct"] = (1 - res.EndToEnd["placements_per_s"]/bare.EndToEnd["placements_per_s"]) * 100

	rungs, errs, err := ladder(m, wl, o.seed, wl.ladder)
	if err != nil {
		return nil, err
	}
	res.Errors = append(res.Errors, errs...)
	for k, v := range rungs {
		res.Layer[k] = v
	}

	lanes, obs, err := variants(m, passConfig{wl: wl, seed: o.seed}, variantRounds, secs(o.seconds*variantBurstShare))
	if err != nil {
		return nil, err
	}
	res.Layer["pipeline.lanes2_ratio"], res.Layer["obs.overhead_pct"] = lanes, obs
	return res, nil
}

// spawn runs this binary again as a child and decodes what it printed.
func spawn(o options, role string, v any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-role", role, "-workload", o.workload, "-model", o.model, "-out", o.out,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", role, err)
	}
	return json.Unmarshal(stdout.Bytes(), v)
}

// summary is one end-to-end metric over a workload's repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (max-min)/median
	Raw    []float64 `json:"raw"`
}

type workloadResult struct {
	Why       string             `json:"why"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	FailShare float64            `json:"fail_share"`
	Reps      []*repResult       `json:"repetitions,omitempty"`
	Layers    *repResult         `json:"per_layer_run,omitempty"`
}

type environment struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPU         string  `json:"cpu_model"`
	Go          string  `json:"go_version"`
	Commit      string  `json:"git_commit"`
	Seed        int64   `json:"seed"`
	Conns       int     `json:"wire_connections"`
	Reps        int     `json:"repetitions"`
	RepSeconds  float64 `json:"rep_seconds"`
	LoadAverage float64 `json:"load_average_1min_at_start"`
}

type results struct {
	Env       environment                `json:"environment"`
	Setups    []setupTimes               `json:"setup_runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func readEnvironment(o options) environment {
	e := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", Seed: o.seed, Conns: wireConns, Reps: o.reps, RepSeconds: o.seconds,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &e.LoadAverage)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// parent does set-up, runs every selected workload in child processes,
// prints every metric by name with its unit, and writes results.json. It
// reports false when any output check failed.
func parent(o options) (bool, error) {
	selected := workloads
	if o.workload != "" {
		wl := findWorkload(o.workload)
		if wl == nil {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{wl}
	}
	if o.reps <= 0 {
		o.reps = 3
		if o.workload != "" {
			o.reps = 1
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	res := results{Env: readEnvironment(o), Workloads: map[string]*workloadResult{}}

	// Set-up: cold model builds, each in its own process. The end-to-end
	// side reports their median; a per-layer-only run needs just one.
	tmp, err := os.MkdirTemp(o.out, "model-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	o.model = filepath.Join(tmp, "model.gob")
	builds := 3
	if o.trace == 1 {
		builds = 1
	}
	var totals []float64
	for i := 0; i < builds; i++ {
		var t setupTimes
		if err := spawn(o, "setup", &t); err != nil {
			return false, err
		}
		res.Setups = append(res.Setups, t)
		totals = append(totals, t.Total)
	}
	setup := summary{Unit: "s", Median: median(totals), Spread: spread(totals), Raw: totals}
	fmt.Printf("set-up: setup_s %.4f s (spread %.1f%% over %d cold builds)\n", setup.Median, setup.Spread*100, builds)

	ok := true
	for _, wl := range selected {
		o.workload = wl.name
		wr := &workloadResult{Why: wl.why}
		res.Workloads[wl.name] = wr
		fmt.Printf("\n%s (%s)\n", wl.name, wl.fx.name)
		if o.trace != 1 {
			for i := 0; i < o.reps; i++ {
				rep := &repResult{}
				if err := spawn(o, "rep", rep); err != nil {
					return false, err
				}
				wr.Reps = append(wr.Reps, rep)
			}
			wr.summarize(setup)
			wr.print()
		}
		if o.trace != 0 {
			wr.Layers = &repResult{}
			if err := spawn(o, "layers", wr.Layers); err != nil {
				return false, err
			}
			wr.PerLayer = wr.Layers.Layer
			last := res.Setups[len(res.Setups)-1]
			wr.PerLayer["profile.catalog_s"], wr.PerLayer["core.collect_s"] = last.Catalog, last.Collect
			wr.PerLayer["core.train_s"], wr.PerLayer["core.compile_s"], wr.PerLayer["core.load_s"] = last.Train, last.Compile, last.Load
			for _, d := range perLayer {
				fmt.Printf("  %-32s %14.4f %s\n", d.Name, wr.PerLayer[d.Name], d.Unit)
			}
		}
		for _, rep := range append(wr.Reps, wr.Layers) {
			if rep == nil {
				continue
			}
			for _, e := range rep.Errors {
				ok = false
				fmt.Printf("  CHECK FAILED: %s\n", e)
			}
			if !rep.Valid {
				fmt.Printf("  WARNING: the open-loop generator ran late (handed arrivals over %.0f us late at p99, backlog %.0f): latencies from the due time include its delay\n",
					rep.Layer["gen.late_p99_us"], rep.Layer["gen.backlog_end"])
			}
		}
	}

	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), b, 0o644); err != nil {
		return false, err
	}
	if len(selected) == 1 && o.trace >= 0 {
		printResultLine(res.Workloads[selected[0].name], o.trace, ok)
	}
	return ok, nil
}

// summarize reduces the repetitions to a median and spread per metric.
func (wr *workloadResult) summarize(setup summary) {
	wr.EndToEnd = map[string]summary{"setup_s": setup}
	attempted, failed := 0, 0
	for _, rep := range wr.Reps {
		attempted, failed = attempted+rep.Attempted, failed+rep.Failed
	}
	wr.FailShare = float64(failed) / float64(max(attempted, 1))
	for _, d := range endToEnd[1:] {
		s := summary{Unit: d.Unit}
		for _, rep := range wr.Reps {
			s.Raw = append(s.Raw, rep.EndToEnd[d.Name])
		}
		s.Median, s.Spread = median(s.Raw), spread(s.Raw)
		wr.EndToEnd[d.Name] = s
	}
}

func (wr *workloadResult) print() {
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		fmt.Printf("  %-32s %14.4f %-6s (spread %.1f%%, n=%d)\n", d.Name, s.Median, d.Unit, s.Spread*100, len(s.Raw))
	}
	last := wr.Reps[len(wr.Reps)-1]
	fmt.Printf("  %-32s %14.6f share  (%d samples behind admit percentiles, p99 is really p%.2f)\n",
		"fail_share", wr.FailShare, last.Samples["admit"], last.P99Used*100)
}

// printResultLine prints the machine-readable last line of a one-workload
// run: the end-to-end metrics with -trace 0, the per-layer ones with 1.
func printResultLine(wr *workloadResult, trace int, ok bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: ok, Metrics: map[string]value{}}
	if trace == 0 {
		for _, rep := range wr.Reps {
			line.Attempted, line.Failed = line.Attempted+rep.Attempted, line.Failed+rep.Failed
		}
		for _, d := range endToEnd {
			line.Metrics[d.Name] = value{wr.EndToEnd[d.Name].Median, d.Unit}
		}
	} else {
		line.Attempted, line.Failed = wr.Layers.Attempted, wr.Layers.Failed
		for _, d := range perLayer {
			line.Metrics[d.Name] = value{wr.PerLayer[d.Name], d.Unit}
		}
	}
	b, _ := json.Marshal(line) // a struct of numbers and strings cannot fail
	fmt.Println(string(b))
}
