package core

import (
	"errors"
	"fmt"
	"sync"

	"gaugur/internal/profile"
	"gaugur/internal/sim"
)

// Graceful prediction degradation: the serving layer must keep placing
// sessions even when the trained CM/RM is missing, erroring, or stale. A
// FallbackPredictor chains prediction stages from most accurate to most
// conservative — the full GAugur models first, then a VBP-style capacity
// check built from profiles alone (the one feasibility test Section 3.2
// says needs no interference prediction). A circuit breaker per fallible
// stage trips after consecutive failures or a declared outage and
// half-open-probes its way back, so one flaky model cannot take placement
// down with it.

// ErrStageUnavailable is returned by a stage that cannot currently answer
// (model not loaded, profiling data missing, declared outage).
var ErrStageUnavailable = errors.New("core: prediction stage unavailable")

// PredictorStage is one link in the degradation chain: a source of FPS and
// feasibility answers that may fail.
type PredictorStage interface {
	// Name identifies the stage in stats and logs.
	Name() string
	// PredictFPS estimates the frame rate of workload idx within c.
	PredictFPS(c Colocation, idx int) (float64, error)
	// Feasible reports whether every member of c clears the QoS floor.
	Feasible(c Colocation) (bool, error)
}

// modelStage adapts the trained Predictor to the fallible stage interface,
// converting panics and missing models into errors instead of crashes. The
// model is resolved through a ModelHandle per query, so a lifecycle hot
// swap takes effect on the very next prediction with no chain rebuild.
type modelStage struct {
	h *ModelHandle
}

func (m *modelStage) Name() string { return "model" }

func (m *modelStage) guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("core: model stage panicked: %v", r)
	}
}

func (m *modelStage) PredictFPS(c Colocation, idx int) (fps float64, err error) {
	defer m.guard(&err)
	p := m.h.Load()
	if p == nil || p.RM == nil || p.Profiles == nil {
		return 0, fmt.Errorf("%w: RM not loaded", ErrStageUnavailable)
	}
	return p.PredictFPS(c, idx), nil
}

func (m *modelStage) Feasible(c Colocation) (ok bool, err error) {
	defer m.guard(&err)
	p := m.h.Load()
	if p == nil || p.Profiles == nil || (p.CM == nil && p.RM == nil) {
		return false, fmt.Errorf("%w: CM/RM not loaded", ErrStageUnavailable)
	}
	if p.CM != nil {
		return p.FeasibleCM(c), nil
	}
	return p.FeasibleRM(c), nil
}

// capacityStage is the conservative terminal stage: a VBP-style capacity
// check from solo profiles only. It never fails — when even profiles are
// missing it answers with the safest possible estimate (infeasible, zero
// FPS), which degrades placement quality but never placement availability.
type capacityStage struct {
	profiles *profile.Set
	capacity sim.Vector
	cpuMem   float64
	gpuMem   float64
	qos      float64
}

// countedCapacityResources mirrors the VBP baseline: every shared resource
// except the caches, whose utilization VBP cannot meaningfully count.
var countedCapacityResources = []sim.Resource{sim.CPUCE, sim.MemBW, sim.GPUCE, sim.GPUBW, sim.PCIeBW}

func (v *capacityStage) Name() string { return "capacity" }

func (v *capacityStage) PredictFPS(c Colocation, idx int) (float64, error) {
	if v.profiles == nil {
		return 0, nil
	}
	p := v.profiles.Get(c[idx].GameID)
	if p == nil {
		return 0, nil
	}
	solo := p.SoloFPS(c[idx].Res)
	// Conservative degradation estimate: scale solo FPS down by the
	// worst-dimension utilization of the whole colocation. Crude, but
	// monotone in load — exactly what a capacity heuristic can promise.
	if frac := v.loadFraction(c); frac > 1 {
		return solo / frac, nil
	}
	return solo, nil
}

func (v *capacityStage) Feasible(c Colocation) (bool, error) {
	if v.profiles == nil {
		return false, nil
	}
	var res sim.Vector
	var cpu, gpu float64
	for _, w := range c {
		p := v.profiles.Get(w.GameID)
		if p == nil {
			return false, nil
		}
		if p.SoloFPS(w.Res) < v.qos {
			return false, nil
		}
		res = res.Add(p.Demand(w.Res))
		cpu += p.CPUMem
		gpu += p.GPUMem
	}
	for _, r := range countedCapacityResources {
		if res[r] > v.capacity[r] {
			return false, nil
		}
	}
	return cpu <= v.cpuMem && gpu <= v.gpuMem, nil
}

// loadFraction is the colocation's worst counted-dimension utilization
// relative to capacity (>1 means oversubscribed).
func (v *capacityStage) loadFraction(c Colocation) float64 {
	var res sim.Vector
	for _, w := range c {
		if p := v.profiles.Get(w.GameID); p != nil {
			res = res.Add(p.Demand(w.Res))
		}
	}
	worst := 0.0
	for _, r := range countedCapacityResources {
		if v.capacity[r] > 0 {
			if f := res[r] / v.capacity[r]; f > worst {
				worst = f
			}
		}
	}
	return worst
}

// BreakerConfig tunes the per-stage circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive stage failures trip the
	// breaker open; <= 0 defaults to 3.
	FailureThreshold int
	// CooldownCalls is how many queries the open breaker short-circuits
	// before letting one probe through (half-open); <= 0 defaults to 50.
	CooldownCalls int
}

func (b BreakerConfig) withDefaults() BreakerConfig {
	if b.FailureThreshold <= 0 {
		b.FailureThreshold = 3
	}
	if b.CooldownCalls <= 0 {
		b.CooldownCalls = 50
	}
	return b
}

// breakerState is the classic three-state circuit breaker, counted in
// calls rather than wall time so simulated serving stays deterministic.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String names the state for span annotations and logs.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

type breaker struct {
	cfg      BreakerConfig
	state    breakerState
	failures int // consecutive failures while closed
	skipped  int // calls short-circuited while open
	calls    int // calls seen since the last state change (observability)
	forced   bool
}

// setState transitions the breaker, resetting the calls-in-state counter
// only on an actual change.
func (b *breaker) setState(s breakerState) {
	if b.state != s {
		b.state = s
		b.calls = 0
	}
}

// allow reports whether the protected stage may be consulted.
func (b *breaker) allow() bool {
	b.calls++
	if b.forced {
		return false
	}
	switch b.state {
	case breakerClosed, breakerHalfOpen:
		return true
	default: // open: wait out the cooldown, then probe.
		b.skipped++
		if b.skipped >= b.cfg.CooldownCalls {
			b.setState(breakerHalfOpen)
			b.skipped = 0
			return true
		}
		return false
	}
}

// observe records a stage outcome.
func (b *breaker) observe(ok bool) {
	if ok {
		b.setState(breakerClosed)
		b.failures = 0
		b.skipped = 0
		return
	}
	switch b.state {
	case breakerHalfOpen:
		b.setState(breakerOpen)
		b.skipped = 0
	default:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.setState(breakerOpen)
			b.failures = 0
			b.skipped = 0
		}
	}
}

// FallbackPredictor chains prediction stages behind circuit breakers and
// always answers: queries walk the chain until a healthy stage responds,
// and the terminal capacity stage cannot fail. Safe for concurrent use:
// breaker state and the stage tallies are mutex-guarded, so a lifecycle
// hot swap can land while serving threads are mid-query. It records no
// spans — queries run on whatever goroutine asks, which does not own the
// decision's trace. Which stage carried the traffic is in Stats and, with
// EnableMetrics, on /metrics: gaugur_fallback_served_total,
// gaugur_fallback_errors_total, gaugur_fallback_breaker_transitions_total,
// gaugur_fallback_breaker_state and gaugur_fallback_degraded.
type FallbackPredictor struct {
	mu       sync.Mutex
	stages   []PredictorStage
	breakers []*breaker

	// handle is the swappable model slot the primary stage serves from
	// (nil when the chain was built over custom stages).
	handle *ModelHandle

	// Served counts answers per stage name — the observability a serving
	// experiment reads to show which layer carried the traffic. Guarded by
	// mu; read them through Stats when other goroutines may be serving.
	Served map[string]int
	// Errors counts stage failures per stage name (guarded by mu).
	Errors map[string]int

	// met mirrors Served/Errors into an obs registry and additionally
	// tracks breaker transitions; see EnableMetrics.
	met fallbackMetrics
}

// NewFallbackPredictor builds the standard two-stage chain: the trained
// predictor (may be nil — the breaker then trips immediately) degrading to
// the conservative capacity check over profiles. qos is the frame-rate
// floor the capacity stage screens solo FPS against.
func NewFallbackPredictor(p *Predictor, profiles *profile.Set, qos float64, cfg BreakerConfig) *FallbackPredictor {
	return NewFallbackPredictorHandle(NewModelHandle(p), profiles, qos, cfg)
}

// NewFallbackPredictorHandle is NewFallbackPredictor over an externally
// owned ModelHandle: the lifecycle manager swaps models through the handle
// and the chain serves the new model on the very next query.
func NewFallbackPredictorHandle(h *ModelHandle, profiles *profile.Set, qos float64, cfg BreakerConfig) *FallbackPredictor {
	var capVec sim.Vector
	for i := range capVec {
		capVec[i] = 1
	}
	f := NewFallbackChain(cfg,
		&modelStage{h: h},
		&capacityStage{profiles: profiles, capacity: capVec, cpuMem: 1, gpuMem: 1, qos: qos},
	)
	f.handle = h
	return f
}

// Handle returns the swappable model slot behind the primary stage (nil
// for custom chains).
func (f *FallbackPredictor) Handle() *ModelHandle { return f.handle }

// NewFallbackChain builds a fallback predictor over arbitrary stages,
// ordered most-preferred first. Every stage but the last sits behind its
// own circuit breaker; the last is the unconditional terminal.
func NewFallbackChain(cfg BreakerConfig, stages ...PredictorStage) *FallbackPredictor {
	cfg = cfg.withDefaults()
	f := &FallbackPredictor{
		stages: stages,
		Served: map[string]int{},
		Errors: map[string]int{},
	}
	for range stages {
		f.breakers = append(f.breakers, &breaker{cfg: cfg})
	}
	return f
}

// ReportOutage forces the primary stage's breaker open (true) or releases
// it (false) — the hook for declared failures such as profiling-
// measurement dropouts, where waiting for organic errors would serve
// garbage in the meantime.
func (f *FallbackPredictor) ReportOutage(down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.breakers) == 0 {
		return
	}
	b := f.breakers[0]
	if b.forced != down {
		b.forced = down
		b.calls = 0
	}
	if !down {
		// Recover immediately: the outage was declared over, not probed.
		b.setState(breakerClosed)
		b.failures = 0
	}
	f.publishBreakers()
	f.updateDegraded()
}

// updateDegraded refreshes the degraded gauge (no-op when metrics are
// disabled). Callers hold f.mu.
func (f *FallbackPredictor) updateDegraded() {
	if f.met.degraded == nil {
		return
	}
	v := 0.0
	if f.degradedLocked() {
		v = 1
	}
	f.met.degraded.Set(v)
}

// publishBreakers refreshes the per-stage breaker gauges: the numeric
// state (0 closed, 1 half-open, 2 open) and the calls seen since the last
// state change — the breaker's deterministic, call-counted notion of
// "time in stage". Callers hold f.mu; no-op when metrics are disabled.
func (f *FallbackPredictor) publishBreakers() {
	if f.met.breakerState == nil {
		return
	}
	for i, b := range f.breakers {
		if i == len(f.stages)-1 {
			break // terminal stage has no breaker semantics
		}
		name := f.stages[i].Name()
		v := 0.0
		switch {
		case b.forced || b.state == breakerOpen:
			v = 2
		case b.state == breakerHalfOpen:
			v = 1
		}
		f.met.breakerState[name].Set(v)
		f.met.breakerCalls[name].Set(float64(b.calls))
	}
}

// Degraded reports whether the primary stage is currently unavailable
// (forced or tripped open).
func (f *FallbackPredictor) Degraded() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.degradedLocked()
}

func (f *FallbackPredictor) degradedLocked() bool {
	if len(f.breakers) == 0 {
		return false
	}
	b := f.breakers[0]
	return b.forced || b.state == breakerOpen
}

// BreakerStatus is the observable state of one stage's circuit breaker.
type BreakerStatus struct {
	// Stage is the protected stage's name.
	Stage string
	// State is the breaker state ("closed", "open", "half-open").
	State string
	// Forced reports a declared outage holding the breaker open.
	Forced bool
	// CallsInState counts queries consulted since the last state change —
	// the call-counted analogue of time-in-state (the breaker's cooldowns
	// are counted in calls, not wall time, to keep serving deterministic).
	CallsInState int
}

// BreakerStatuses snapshots every non-terminal stage's breaker.
func (f *FallbackPredictor) BreakerStatuses() []BreakerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []BreakerStatus
	for i, b := range f.breakers {
		if i == len(f.stages)-1 {
			break
		}
		out = append(out, BreakerStatus{
			Stage:        f.stages[i].Name(),
			State:        b.state.String(),
			Forced:       b.forced,
			CallsInState: b.calls,
		})
	}
	return out
}

// Stats returns copies of the per-stage served/error tallies, safe to read
// while other goroutines are serving.
func (f *FallbackPredictor) Stats() (served, errors map[string]int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	served = make(map[string]int, len(f.Served))
	for k, v := range f.Served {
		served[k] = v
	}
	errors = make(map[string]int, len(f.Errors))
	for k, v := range f.Errors {
		errors[k] = v
	}
	return served, errors
}

// query walks the chain until a stage answers; the final stage's error (if
// any) is returned as a last resort. The whole walk holds f.mu, so breaker
// decisions and tallies are atomic per query: concurrent callers see a
// serialized sequence of breaker transitions (a half-open probe is one
// query's to win or lose, never two racing).
func (f *FallbackPredictor) query(call func(PredictorStage) error) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var lastErr error
	for i, st := range f.stages {
		terminal := i == len(f.stages)-1
		var prev breakerState
		if !terminal {
			prev = f.breakers[i].state
			if !f.breakers[i].allow() {
				continue
			}
		}
		err := call(st)
		if !terminal {
			f.breakers[i].observe(err == nil)
			if f.breakers[i].state != prev {
				f.met.transitions[st.Name()].Inc()
			}
		}
		if err == nil {
			f.Served[st.Name()]++
			f.met.served[st.Name()].Inc()
			f.publishBreakers()
			f.updateDegraded()
			return st.Name(), nil
		}
		f.Errors[st.Name()]++
		f.met.errors[st.Name()].Inc()
		lastErr = err
	}
	f.publishBreakers()
	f.updateDegraded()
	return "", fmt.Errorf("core: every prediction stage failed: %w", lastErr)
}

// PredictFPS estimates the frame rate of workload idx within c, returning
// the name of the stage that answered.
func (f *FallbackPredictor) PredictFPS(c Colocation, idx int) (float64, string, error) {
	var fps float64
	stage, err := f.query(func(st PredictorStage) error {
		v, err := st.PredictFPS(c, idx)
		fps = v
		return err
	})
	return fps, stage, err
}

// Feasible reports whether every member of c clears the QoS floor,
// returning the name of the stage that answered.
func (f *FallbackPredictor) Feasible(c Colocation) (bool, string, error) {
	var ok bool
	stage, err := f.query(func(st PredictorStage) error {
		v, err := st.Feasible(c)
		ok = v
		return err
	})
	return ok, stage, err
}

// PredictTotalFPS sums PredictFPS over the colocation — the scorer shape
// the greedy dispatcher wants, degradation included.
func (f *FallbackPredictor) PredictTotalFPS(c Colocation) float64 {
	s := 0.0
	for i := range c {
		fps, _, err := f.PredictFPS(c, i)
		if err == nil {
			s += fps
		}
	}
	return s
}
