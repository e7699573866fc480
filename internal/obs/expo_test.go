package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// goldenRegistry builds a deterministic registry: manual clock, fixed
// observations, labeled and unlabeled series.
func goldenRegistry() *Registry {
	clk := NewManualClock(0, 250*time.Microsecond)
	r := NewWithClock(clk.Now)
	r.Counter("gaugur_demo_requests_total", "requests handled").Add(7)
	r.Counter(`gaugur_demo_served_total{stage="capacity"}`, "answers by stage").Add(2)
	r.Counter(`gaugur_demo_served_total{stage="model"}`).Add(5)
	r.Gauge("gaugur_demo_active", "live sessions").Set(3)
	h := r.Histogram("gaugur_demo_delay", []float64{0.001, 0.01, 0.1}, "demo delay")
	for _, v := range []float64{0.0005, 0.002, 0.05, 2} {
		h.Observe(v)
	}
	start := r.Now() // two stamps exactly one 250µs step apart
	r.Histogram("gaugur_demo_stage_seconds", nil, "stage timing").Observe(float64(r.Now()-start) / 1e9)
	return r
}

// TestPrometheusGolden pins the exact exposition bytes: sorted families,
// HELP/TYPE headers, cumulative le buckets, label merging.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP gaugur_demo_active live sessions`,
		`# TYPE gaugur_demo_active gauge`,
		`gaugur_demo_active 3`,
		`# HELP gaugur_demo_delay demo delay`,
		`# TYPE gaugur_demo_delay histogram`,
		`gaugur_demo_delay_bucket{le="0.001"} 1`,
		`gaugur_demo_delay_bucket{le="0.01"} 2`,
		`gaugur_demo_delay_bucket{le="0.1"} 3`,
		`gaugur_demo_delay_bucket{le="+Inf"} 4`,
		`gaugur_demo_delay_sum 2.0525`,
		`gaugur_demo_delay_count 4`,
		`# HELP gaugur_demo_requests_total requests handled`,
		`# TYPE gaugur_demo_requests_total counter`,
		`gaugur_demo_requests_total 7`,
		`# HELP gaugur_demo_served_total answers by stage`,
		`# TYPE gaugur_demo_served_total counter`,
		`gaugur_demo_served_total{stage="capacity"} 2`,
		`gaugur_demo_served_total{stage="model"} 5`,
	}, "\n") + "\n"
	got := buf.String()
	// The timer family (alphabetically last) depends on DefLatencyBuckets;
	// check it separately below and compare the fixed families exactly.
	idx := strings.Index(got, "# HELP gaugur_demo_stage_seconds")
	if idx < 0 {
		t.Fatalf("missing timer family in exposition:\n%s", got)
	}
	fixed := got[:idx]
	if fixed != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", fixed, want)
	}
	if !strings.Contains(got, `gaugur_demo_stage_seconds_bucket{le="0.00025"} 1`) {
		t.Errorf("timer span not in the 250µs bucket:\n%s", got)
	}
	if !strings.Contains(got, "gaugur_demo_stage_seconds_sum 0.00025\n") {
		t.Errorf("timer sum not exactly 250µs:\n%s", got)
	}

	// Deterministic: a second registry with the same history must emit the
	// identical bytes.
	var buf2 bytes.Buffer
	goldenRegistry().WritePrometheus(&buf2)
	if buf2.String() != got {
		t.Error("exposition is not deterministic across identical registries")
	}
}

// TestJSONGolden pins the JSON snapshot for the same registry.
func TestJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, frag := range []string{
		`"gaugur_demo_requests_total": 7`,
		`"gaugur_demo_served_total{stage=\"model\"}": 5`,
		`"gaugur_demo_active": 3`,
		`"count": 4`,
		`"sum": 2.0525`,
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("JSON snapshot missing %q:\n%s", frag, got)
		}
	}
	var buf2 bytes.Buffer
	goldenRegistry().WriteJSON(&buf2)
	if buf2.String() != got {
		t.Error("JSON snapshot is not deterministic")
	}
}

func TestSplitName(t *testing.T) {
	for _, tc := range []struct{ in, fam, labels string }{
		{"plain_total", "plain_total", ""},
		{`x_total{stage="rm"}`, "x_total", `stage="rm"`},
		{`x{a="1",b="2"}`, "x", `a="1",b="2"`},
	} {
		fam, labels := splitName(tc.in)
		if fam != tc.fam || labels != tc.labels {
			t.Errorf("splitName(%q) = (%q, %q), want (%q, %q)", tc.in, fam, labels, tc.fam, tc.labels)
		}
	}
}
