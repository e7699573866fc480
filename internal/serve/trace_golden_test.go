package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
)

// TestAdmissionTraceGolden pins, byte for byte, the traces a sequence of
// admits and leaves records on a one-lane, no-delay pipeline: ids,
// parents, names, stamps, attributes and — through the manual clock,
// which advances on every read — how many times an op reads the clock.
// The sequence includes a capacity rejection and an unknown leave, so the
// force-kept error shapes are pinned alongside the placed ones.
func TestAdmissionTraceGolden(t *testing.T) {
	clk := obs.NewManualClock(0, time.Microsecond)
	tr := trace.New(trace.Config{Seed: 11, Clock: clk.Now, Capacity: 1024})
	p, err := NewPipeline(PipelineConfig{Cluster: tracedCluster(t, 8, 2, 2, tr), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	var sessions []int
	for i := 0; i < 16; i++ {
		pl, err := p.AdmitTraced(i%7, uint64(1000+i))
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		sessions = append(sessions, pl.Session)
	}
	for _, s := range sessions[:6] {
		if err := p.Leave(s); err != nil {
			t.Fatalf("leave %d: %v", s, err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := p.Admit(3 + i); err != nil {
			t.Fatalf("refill admit %d: %v", i, err)
		}
	}
	if _, err := p.Admit(5); err == nil {
		t.Fatal("admit into a full fleet succeeded")
	}
	if err := p.LeaveTraced(1<<40, 77); err == nil {
		t.Fatal("leave of an unknown session succeeded")
	}
	p.Close()

	traces := tr.Store().Recent(0)
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
	var got bytes.Buffer
	if err := trace.WriteJSON(&got, traces); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "admission_traces.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("admission trace export moved (%d bytes, golden %d)", got.Len(), len(want))
	}
}
