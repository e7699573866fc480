package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"gaugur/internal/core"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// cmdTrace drives a short traced + audited churn workload against the
// synthetic demo substrate (no profiles or trained model needed) and dumps
// what the observability layer captured: recent decision traces, expanded
// span trees, and the model-quality summary. -perturb skews the substrate
// away from the demo predictor to demonstrate the drift alarm; -chrome and
// -json export the traces for chrome://tracing / offline analysis.
func cmdTrace(args []string) error {
	fs := newFlagSet("trace")
	servers := fs.Int("servers", 20, "fleet size")
	sessions := fs.Int("sessions", 400, "session arrivals to simulate")
	seed := fs.Int64("seed", 13, "simulation seed (also derives the trace-ID stream)")
	n := fs.Int("n", 10, "recent traces to list")
	spans := fs.Int("spans", 2, "listed traces to expand as full span trees (0 = none)")
	perturb := fs.Float64("perturb", 1, "scale the substrate's true FPS by this factor (0.6 makes the demo model drift)")
	chromeOut := fs.String("chrome", "", "write the listed traces as Chrome trace-event JSON to this file")
	jsonOut := fs.String("json", "", "write the listed traces as structured JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tracer := trace.New(trace.Config{Seed: sim.DeriveSeed(*seed, "trace", 0)})
	aud := core.NewAuditorFunc(func(games []int, idx int) (float64, bool) {
		fps := demoEval(games)[idx]
		return fps, fps >= 60
	}, 60, core.AuditorConfig{})
	eval := sched.FPSEvaluator(demoEval)
	if *perturb != 1 {
		eval = func(g []int) []float64 {
			out := demoEval(g)
			for i := range out {
				out[i] *= *perturb
			}
			return out
		}
	}
	score := func(g []int) float64 {
		s := 0.0
		for _, f := range demoEval(g) {
			s += f
		}
		return s
	}
	const maxPer = 4
	cfg := sched.OnlineConfig{
		ArrivalRate:  0.85 * float64(*servers) * maxPer / 6,
		MeanDuration: 6,
		Sessions:     *sessions,
		GameIDs:      []int{0, 1, 2, 3, 4, 5, 6},
		Seed:         *seed,
		Tracer:       tracer,
		Audit:        aud,
	}
	res, err := sched.RunChurn(cfg, fleet.Config{
		NumServers: *servers, MaxPerServer: maxPer, Scorer: fleet.ScorerFunc(score), Tracer: tracer,
	}, eval, 60)
	if err != nil {
		return err
	}
	fmt.Printf("drove %d arrivals onto %d servers: mean FPS %.1f, %d completed\n",
		*sessions, *servers, res.MeanFPS, res.Completed)

	st := tracer.Store()
	recent := st.Recent(*n)
	fmt.Printf("\ntraces: %d retained of %d recorded (%d evicted by the %d-trace ring)\n",
		st.Len(), st.Total(), st.Evicted(), st.Capacity())
	fmt.Printf("%-16s  %-12s %6s  %10s  %s\n", "id", "name", "spans", "duration", "outcome")
	for _, tr := range recent {
		fmt.Printf("%-16s  %-12s %6d  %10s  %s\n",
			trace.FormatID(tr.ID), tr.Name, len(tr.Spans),
			time.Duration(tr.DurationNS()), rootAttr(tr, "outcome"))
	}
	for i := 0; i < *spans && i < len(recent); i++ {
		fmt.Printf("\ntrace %s (%s):\n", trace.FormatID(recent[i].ID), recent[i].Name)
		printSpanTree(recent[i])
	}

	if *chromeOut != "" {
		if err := writeTraces(*chromeOut, recent, trace.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("\nchrome trace (load via chrome://tracing or ui.perfetto.dev) -> %s\n", *chromeOut)
	}
	if *jsonOut != "" {
		if err := writeTraces(*jsonOut, recent, trace.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("structured trace JSON -> %s\n", *jsonOut)
	}

	fmt.Println()
	printQuality(aud)
	return nil
}

// rootAttr returns the named attribute of the trace's root span ("" when
// absent).
func rootAttr(tr trace.Trace, key string) string {
	for _, sp := range tr.Spans {
		if sp.SpanID != tr.Root {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Value()
			}
		}
	}
	return ""
}

// printSpanTree renders a trace's spans as an indented tree with their
// annotations, children in recorded order.
func printSpanTree(tr trace.Trace) {
	children := make(map[uint64][]trace.Span, len(tr.Spans))
	for _, sp := range tr.Spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	var walk func(id uint64, depth int)
	walk = func(id uint64, depth int) {
		for _, sp := range children[id] {
			fmt.Printf("  %*s%s (%s)", 2*depth, "", sp.Name, time.Duration(sp.EndNS-sp.StartNS))
			for _, a := range sp.Attrs {
				fmt.Printf(" %s=%s", a.Key, a.Value())
			}
			fmt.Println()
			walk(sp.SpanID, depth+1)
		}
	}
	// The root's parent is the zero sentinel.
	walk(0, 0)
}

// writeTraces exports traces to a file through one of the trace encoders.
func writeTraces(path string, trs []trace.Trace, write func(w io.Writer, trs []trace.Trace) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, trs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
