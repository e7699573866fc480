// Package obs is gaugur's dependency-free observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms) with an injectable
// clock, Prometheus text-format exposition, a JSON snapshot, and an HTTP
// endpoint that also mounts expvar and net/http/pprof.
//
// Design constraints, in priority order:
//
//  1. Zero dependencies. Everything is standard library, matching the rest
//     of the repository.
//  2. Disabled must cost (almost) nothing. Every instrument method is
//     nil-safe, so instrumented code holds possibly-nil instrument pointers
//     and calls them unconditionally — a disabled metric is a single nil
//     check, no branch at the call site, no interface dispatch.
//  3. Enabled must stay off the critical path. Instruments are resolved
//     once (a locked map lookup) and then updated with lock-free atomics,
//     so hot loops never touch the registry lock.
//  4. Determinism on demand. Wall-clock time is read through an injectable
//     Clock; tests swap in a ManualClock so stage timings — and therefore
//     exposition output — are bit-identical across runs. Metrics never feed
//     back into simulation state, so golden/determinism tests hold with
//     instrumentation enabled.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Clock returns a monotonic timestamp in nanoseconds. The zero point is
// arbitrary; only differences are meaningful.
type Clock func() int64

// Seconds converts two stamps of one Clock into the seconds between them,
// the unit every latency histogram observes.
func Seconds(start, end int64) float64 { return float64(end-start) / 1e9 }

// realClock returns a Clock anchored at its creation instant, reading Go's
// monotonic clock via time.Since.
func realClock() Clock {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

// ManualClock is a deterministic Clock for tests: every reading advances
// the clock by a fixed step, so two consecutive stamps always lie exactly
// one step apart. Safe for concurrent use.
type ManualClock struct {
	now  atomic.Int64
	step int64
}

// NewManualClock returns a ManualClock starting at start that advances by
// step on every Now call.
func NewManualClock(start, step time.Duration) *ManualClock {
	m := &ManualClock{step: int64(step)}
	m.now.Store(int64(start))
	return m
}

// Now returns the current reading and advances the clock by one step.
func (m *ManualClock) Now() int64 { return m.now.Add(m.step) - m.step }

// Registry holds named instruments. Names follow Prometheus conventions
// ([a-zA-Z_:][a-zA-Z0-9_:]*) and may carry a literal label set, e.g.
// `gaugur_train_stage_seconds{stage="rm"}`; exposition groups such series
// under one metric family. The zero value is not usable; a nil *Registry
// is: every method no-ops and returns nil instruments.
type Registry struct {
	clock Clock

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // keyed by family (label-free) name
}

// New returns a registry reading the real monotonic clock.
func New() *Registry { return NewWithClock(nil) }

// NewWithClock returns a registry using the supplied clock; nil selects the
// real monotonic clock.
func NewWithClock(c Clock) *Registry {
	if c == nil {
		c = realClock()
	}
	return &Registry{
		clock:    c,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// Now reads the registry clock (0 on a nil registry).
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock()
}

// setHelp records help text for the metric family owning name.
func (r *Registry) setHelp(name string, help []string) {
	if len(help) == 0 {
		return
	}
	fam, _ := splitName(name)
	if _, ok := r.help[fam]; !ok {
		r.help[fam] = help[0]
	}
}

// Counter returns the named counter, creating it on first use. The
// optional help string is recorded for exposition. Nil registries return a
// nil (no-op) counter.
func (r *Registry) Counter(name string, help ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	r.setHelp(name, help)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, help ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	r.setHelp(name, help)
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it on first
// use with the given upper bounds (nil defaults to DefLatencyBuckets).
// Bounds must be strictly increasing; a later call with different bounds
// returns the existing histogram unchanged.
func (r *Registry) Histogram(name string, bounds []float64, help ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	r.setHelp(name, help)
	return h
}

// Counter is a monotonically increasing int64. All methods are nil-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for Prometheus counter semantics).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64. All methods are nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d atomically.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefLatencyBuckets spans 1µs to 10s — wide enough for both microsecond
// prediction latencies (the paper's §3.6 real-time claim) and multi-second
// offline stages.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with lock-free observation. Bucket
// i counts observations v <= bounds[i]; the final implicit bucket counts
// the overflow (+Inf). All methods are nil-safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
	// exemplars, when enabled via WithExemplars, holds one last-observation
	// trace exemplar per bucket (see exemplar.go).
	exemplars []exemplarSlot
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.observe(v)
}

// observe records v and returns the bucket index it landed in.
func (h *Histogram) observe(v float64) int {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return idx
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot copies the histogram state. Concurrent observers may land
// between the bucket reads and the count read; the drift is at most the
// in-flight observations, which exposition tolerates.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Exemplars = h.exemplarSnapshot()
	return s
}
