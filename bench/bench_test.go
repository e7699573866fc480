package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sync"
	"testing"
	"time"
)

var (
	modelOnce sync.Once
	testModel *model
	modelErr  error
)

// sharedModel trains once per test binary (~2 s) through the same
// build-save-load path the benchmark's set-up uses.
func sharedModel(t *testing.T) *model {
	t.Helper()
	if testing.Short() {
		t.Skip("trains a model and drives every workload: minutes under -race -short")
	}
	modelOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bench-model-")
		if err != nil {
			modelErr = err
			return
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "model.gob")
		if _, modelErr = buildModel(path); modelErr == nil {
			testModel, modelErr = loadModel(path)
		}
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return testModel
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := schedule(7, 1, 150, 2*time.Second)
	if b := schedule(7, 1, 150, 2*time.Second); !slices.Equal(a, b) {
		t.Fatal("same seed and worker gave two schedules")
	}
	if slices.Equal(a, schedule(8, 1, 150, 2*time.Second)) || slices.Equal(a, schedule(7, 2, 150, 2*time.Second)) {
		t.Fatal("another seed or worker gave the same schedule")
	}
	if n := len(a); n < 200 || n > 400 {
		t.Fatalf("150/s over 2 s gave %d arrivals", n)
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= 2*time.Second {
		t.Fatal("arrivals out of order or past the horizon")
	}
}

// stallClient answers at once, except that one admit takes stall.
type stallClient struct {
	calls, stallAt int
	stall          time.Duration
}

func (c *stallClient) Admit(int) (int, int, error) {
	c.calls++
	if c.calls == c.stallAt {
		time.Sleep(c.stall)
	}
	return c.calls, 0, nil
}
func (c *stallClient) Leave(int) error { return nil }
func (c *stallClient) Close() error    { return nil }

// The coordinated-omission test: one stalled reply must show up as
// queueing delay in every arrival that was due during the stall, because
// latency counts from the due time, not from when the worker got round
// to sending.
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	wl := &workload{hold: 1 << 30}
	r := &run{wl: wl, seen: newSessionSet(), sampleEvery: 1}
	r.recorded[phOpen] = true
	w := &worker{r: r, cl: &stallClient{stallAt: 5, stall: stall}, ops: wl.newStream(&model{ten: []int{1, 2, 3}}, 1, 0)}
	var dues []time.Duration
	for i := 0; i < 100; i++ {
		dues = append(dues, time.Duration(i)*time.Millisecond)
	}
	t0 := time.Now()
	feeds := newFeeds([][]time.Duration{dues})
	var lateNS []int32
	go pace(t0, [][]time.Duration{dues}, feeds, func(_, late time.Duration) { lateNS = append(lateNS, clampNS(late)) })
	w.open(feeds[0], t0, 0, t0.Add(time.Second))

	if len(w.admitNS) != len(dues) || w.backlog != 0 {
		t.Fatalf("sent %d of %d arrivals, backlog %d", len(w.admitNS), len(dues), w.backlog)
	}
	delayed := 0
	for _, ns := range w.admitNS {
		if time.Duration(ns) >= stall/3 {
			delayed++
		}
	}
	// Arrivals 5..~45 were due while the worker was stuck; a generator
	// that timed from send would report exactly one slow request.
	if delayed < 20 {
		t.Fatalf("only %d arrivals show the %v stall", delayed, stall)
	}
	// The pacer itself kept its schedule through the stall: it never
	// waits for the worker.
	slices.Sort(lateNS)
	if len(lateNS) != len(dues) || time.Duration(lateNS[len(lateNS)/2]) > 5*time.Millisecond {
		t.Fatalf("pacer ran late: %d samples, median %v", len(lateNS), time.Duration(lateNS[len(lateNS)/2]))
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(i + 1)
		}
		return s
	}
	// 2000 samples: p99 is rank 1980, 20 beyond.
	if v, used := tailPercentile(seq(2000), 0.99); v != 1980 || used != 0.99 {
		t.Fatalf("n=2000: got %d at %v", v, used)
	}
	// 500 samples: p99 would leave 5 beyond; fall back to rank 490 (p98).
	if v, used := tailPercentile(seq(500), 0.99); v != 490 || used != 0.98 {
		t.Fatalf("n=500: got %d at %v", v, used)
	}
	// Too few for any tail: the median.
	if v, _ := tailPercentile(seq(8), 0.99); v != 5 {
		t.Fatalf("n=8: got %d", v)
	}
	if v, _ := tailPercentile(seq(1001), 0.5); v != 501 {
		t.Fatalf("median of 1001: got %d", v)
	}
	if v, used := tailPercentile(nil, 0.99); v != 0 || used != 0 {
		t.Fatal("empty sample")
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Start: 0, End: 100},              // root
		{Trace: 1, ID: 2, Parent: 1, Start: 10, End: 40},   // child
		{Trace: 1, ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps the first child
		{Trace: 1, ID: 4, Parent: 1, Start: 90, End: 120},  // sticks out past the root
		{Trace: 1, ID: 5, Parent: 2, Start: 15, End: 20},   // grandchild: not the root's
		{Trace: 2, ID: 1, Start: 0, End: 50},               // another trace, same ids
		{Trace: 2, ID: 2, Parent: 1, Start: 0, End: 50},    // covers it whole
		{Name: spanScore, Start: 5, End: 25},               // parentless
		{Trace: 3, ID: 2, Parent: 1, Start: 100, End: 130}, // orphan
	}
	want := []int64{100 - 50 - 10, 25, 30, 30, 5, 0, 50, 20, 30}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestCompareVerdict(t *testing.T) {
	lower := metricDef{Name: "admit_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "placements_per_s", Better: "higher", Bound: 0.10}
	s := func(median, spread float64) summary {
		return summary{Median: median, Spread: spread, Raw: []float64{median}}
	}
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lower, s(1.0, 0.02), s(1.05, 0.02), "ok"},
		{lower, s(1.0, 0.02), s(1.15, 0.02), "regressed"},
		{lower, s(1.0, 0.02), s(0.5, 0.02), "ok"}, // a gain is not a regression
		{higher, s(1000, 0.02), s(950, 0.02), "ok"},
		{higher, s(1000, 0.02), s(850, 0.02), "regressed"},
		{higher, s(1000, 0.02), s(2000, 0.02), "ok"},
		{lower, s(1.0, 0.30), s(1.05, 0.02), "unresolved"}, // either side's spread decides
		{lower, s(1.0, 0.02), s(1.50, 0.30), "unresolved"},
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestCompareFilesFlagsRegressionAndFailures(t *testing.T) {
	write := func(name string, pps, fail float64) string {
		r := results{Workloads: map[string]*workloadResult{"wire_http": {
			FailShare: fail,
			EndToEnd:  map[string]summary{"placements_per_s": {Median: pps, Raw: []float64{pps}}},
		}}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 0)
	for _, c := range []struct {
		pps, fail float64
		want      bool
	}{{990, 0, false}, {700, 0, true}, {1000, 0.001, true}} {
		got, err := compareFiles(io.Discard, base, write("b.json", c.pps, c.fail))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("B at %v/s with fail_share %v: regressed=%v, want %v", c.pps, c.fail, got, c.want)
		}
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics,
// with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, code has %q", i, w.Name, workloads[i].name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, code has %d+%d", len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range decl.EndToEnd {
		check(d.Name)
		if got := (metricDef{d.Name, d.Unit, d.Better, d.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end %d: declared %+v, code has %+v", i, got, endToEnd[i])
		}
	}
	for i, d := range decl.PerLayer {
		check(d.Name)
		if got := (metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}); got != perLayer[i] {
			t.Errorf("per-layer %d: declared %+v, code has %+v", i, got, perLayer[i])
		}
	}
	for _, n := range ladderExact {
		if !seen[n] {
			t.Errorf("exact count %q is not a declared metric", n)
		}
	}
}

// Every workload, briefly, on a seed the README's numbers do not use:
// the output checks must pass, nothing may fail, and a pass must emit
// every end-to-end metric it is responsible for.
func TestSmokeAllWorkloads(t *testing.T) {
	m := sharedModel(t)
	for _, wl := range workloads {
		res, _, err := runPass(m, passConfig{wl: wl, seed: 2, warm: 100 * time.Millisecond, dur: 300 * time.Millisecond})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		for _, e := range res.Errors {
			t.Errorf("%s: output check: %s", wl.name, e)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", wl.name, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd[1:] { // setup_s is the parent's
			if d.Name == "leave_p90_ms" && res.Samples["leave"] == 0 {
				continue // too short for a wire worker to fill its hold
			}
			if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v", wl.name, d.Name, v)
			}
		}
	}
}

// The traced pass and a short ladder together must emit every per-layer
// metric the child is responsible for, and the ladder's rungs must agree
// on every placement (its own checks report that as errors).
func TestLayersEmitEveryMetric(t *testing.T) {
	m := sharedModel(t)
	wl := findWorkload("wire_http")
	res, r, err := runPass(m, passConfig{wl: wl, seed: 2, warm: 50 * time.Millisecond, dur: 300 * time.Millisecond, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.writeTrace(filepath.Join(t.TempDir(), "trace.json")); err != nil {
		t.Fatal(err)
	}
	rungs, errs, err := ladder(m, wl, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range append(errs, res.Errors...) {
		t.Errorf("check: %s", e)
	}
	parentOwned := map[string]bool{
		"profile.catalog_s": true, "core.collect_s": true, "core.train_s": true, "core.compile_s": true, "core.load_s": true,
		"trace.overhead_pct": true, "pipeline.lanes2_ratio": true, "obs.overhead_pct": true,
	}
	for _, d := range perLayer {
		_, a := res.Layer[d.Name]
		_, b := rungs[d.Name]
		if !a && !b && !parentOwned[d.Name] {
			t.Errorf("%s is emitted by neither the traced pass nor the ladder", d.Name)
		}
	}
	again, _, err := ladder(m, wl, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ladderExact {
		if rungs[n] != again[n] {
			t.Errorf("%s: %v then %v", n, rungs[n], again[n])
		}
	}
}
