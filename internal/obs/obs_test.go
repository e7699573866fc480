package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Error("Counter must return the same instrument for the same name")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	// le semantics: 0.5 and 1 land in bucket le=1; 1.5 in le=2; 3 in le=4;
	// 100 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 || s.Sum != 106 {
		t.Errorf("count/sum = %d/%g, want 5/106", s.Count, s.Sum)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing bounds must panic")
		}
	}()
	New().Histogram("bad", []float64{1, 1})
}

// TestNilSafety proves the disabled path: every instrument and registry
// method must be callable through nil without panicking.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(3)
	r.Gauge("x").Set(1)
	r.Gauge("x").Add(1)
	r.Histogram("x", nil).Observe(1)
	if r.Now() != 0 {
		t.Error("nil registry clock must read 0")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Errorf("nil registry exposition: %v", err)
	}
	if c := (*Counter)(nil); c.Value() != 0 {
		t.Error("nil counter value must be 0")
	}
	if h := (*Histogram)(nil); h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram must read 0")
	}
}

func TestManualClockDeterminism(t *testing.T) {
	mk := func() *Registry {
		clk := NewManualClock(0, time.Millisecond)
		return NewWithClock(clk.Now)
	}
	r1, r2 := mk(), mk()
	for _, r := range []*Registry{r1, r2} {
		h := r.Histogram("stage_seconds", nil)
		for i := 0; i < 3; i++ {
			start := r.Now()
			sec := float64(r.Now()-start) / 1e9
			if sec != 0.001 {
				t.Fatalf("manual span = %g s, want exactly 0.001", sec)
			}
			h.Observe(sec)
		}
	}
	if h1, h2 := r1.Snapshot().Histograms["stage_seconds"], r2.Snapshot().Histograms["stage_seconds"]; h1.Sum != h2.Sum || h1.Count != h2.Count {
		t.Errorf("manual-clock registries diverged: %+v vs %+v", h1, h2)
	}
}

// TestConcurrentInstruments exercises the lock-free update paths under the
// race detector.
func TestConcurrentInstruments(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n_total")
			g := r.Gauge("g")
			h := r.Histogram("h", []float64{0.5, 1})
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.75)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n_total").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Errorf("gauge = %g, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
