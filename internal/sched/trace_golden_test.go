package sched

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sim"
)

// goldenTraceExport renders every retained trace, oldest first, with each
// trace's spans sorted by span id — the order a trace records its spans in
// is not part of its meaning, everything else is.
func goldenTraceExport(t *testing.T, tracer *trace.Tracer) []byte {
	t.Helper()
	traces := tracer.Store().Recent(0)
	slices.Reverse(traces)
	for _, tr := range traces {
		slices.SortFunc(tr.Spans, func(a, b trace.Span) int {
			switch {
			case a.SpanID < b.SpanID:
				return -1
			case a.SpanID > b.SpanID:
				return 1
			}
			return 0
		})
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, traces); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecisionTraceGolden pins, byte for byte, the traces a churn run
// records: ids, parents, names, stamps, attributes and — through the
// manual clock, which advances on every read — how many times the loop
// reads the clock. The run produces all four decision kinds: placements,
// migrations off a crashed server, watchdog evictions off a spiked one,
// and shed arrivals.
func TestDecisionTraceGolden(t *testing.T) {
	clk := obs.NewManualClock(0, time.Microsecond)
	tracer := trace.New(trace.Config{Seed: 7, Clock: clk.Now, Capacity: 4096})
	cfg := resilientCfg()
	cfg.ArrivalRate = 4
	cfg.WatchdogWindow = 0.5
	cfg.ShedUtilization = 0.9
	cfg.Tracer = tracer
	cfg.Faults = []sim.FaultEvent{
		{At: 5, Kind: sim.FaultCrash, Server: 0, Duration: 5},
		{At: 3, Kind: sim.FaultSpike, Server: 1, Resource: sim.MemBW, Magnitude: 2.0, Duration: 20},
	}
	if _, err := runGreedy(cfg, toyScore, tracer, toyEval, 60); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, tr := range tracer.Store().Recent(0) {
		kinds[tr.Name]++
	}
	for _, k := range []string{"placement", "migration", "watchdog", "shed"} {
		if kinds[k] == 0 {
			t.Errorf("no %q traces; the golden must cover every decision kind (have %v)", k, kinds)
		}
	}
	got := goldenTraceExport(t, tracer)
	want, err := os.ReadFile(filepath.Join("testdata", "decision_traces.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("decision trace export moved (%d bytes, golden %d)", len(got), len(want))
	}
}
