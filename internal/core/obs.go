package core

import "gaugur/internal/obs"

// Observability wiring for the prediction pipeline. Instruments are
// resolved once at EnableMetrics time and then updated lock-free; every
// obs method is nil-safe, so an un-instrumented predictor pays one nil
// check per call site.

// predictorMetrics instruments the online query path — the §3.6 claim that
// prediction is real-time is only credible if its latency is measured.
type predictorMetrics struct {
	predictions *obs.Counter
	qosChecks   *obs.Counter
	latency     *obs.Histogram
	compile     *obs.Histogram
	now         obs.Clock // the registry's clock; nil with metrics off
}

// stamp reads the metrics clock (0, and no read, with metrics off).
func (m *predictorMetrics) stamp() int64 {
	if m.now == nil {
		return 0
	}
	return m.now()
}

// since observes into h the seconds from start to now.
func (m *predictorMetrics) since(h *obs.Histogram, start int64) {
	if h != nil {
		h.Observe(obs.Seconds(start, m.now()))
	}
}

// EnableMetrics wires the predictor's online query path into r (a nil r
// disables instrumentation again). Returns p for chaining.
func (p *Predictor) EnableMetrics(r *obs.Registry) *Predictor {
	if r == nil {
		p.met = predictorMetrics{}
		return p
	}
	p.met = predictorMetrics{
		predictions: r.Counter("gaugur_predict_total",
			"RM degradation predictions answered"),
		qosChecks: r.Counter("gaugur_predict_qos_checks_total",
			"CM QoS-feasibility queries answered"),
		latency: r.Histogram("gaugur_predict_seconds", nil,
			"latency of one online interference prediction"),
		compile: r.Histogram(`gaugur_stage_seconds{stage="model-compile"}`, nil,
			"time lowering fitted models into compiled inference plans"),
		now: r.Now,
	}
	return p
}

// fallbackMetrics instruments the degradation chain: which stage carried
// each query, stage errors, circuit-breaker transitions, and whether the
// chain is currently degraded.
type fallbackMetrics struct {
	served       map[string]*obs.Counter
	errors       map[string]*obs.Counter
	transitions  map[string]*obs.Counter
	breakerState map[string]*obs.Gauge
	breakerCalls map[string]*obs.Gauge
	degraded     *obs.Gauge
}

// EnableMetrics wires the fallback chain into r (nil disables). Counters
// are pre-resolved per stage; nil-map lookups yield nil counters, so the
// disabled path stays branch-free. Returns f for chaining.
func (f *FallbackPredictor) EnableMetrics(r *obs.Registry) *FallbackPredictor {
	if r == nil {
		f.met = fallbackMetrics{}
		return f
	}
	m := fallbackMetrics{
		served:       make(map[string]*obs.Counter, len(f.stages)),
		errors:       make(map[string]*obs.Counter, len(f.stages)),
		transitions:  make(map[string]*obs.Counter, len(f.stages)),
		breakerState: make(map[string]*obs.Gauge, len(f.stages)),
		breakerCalls: make(map[string]*obs.Gauge, len(f.stages)),
		degraded: r.Gauge("gaugur_fallback_degraded",
			"1 while the primary prediction stage is unavailable"),
	}
	for _, st := range f.stages {
		name := st.Name()
		m.served[name] = r.Counter(`gaugur_fallback_served_total{stage="`+name+`"}`,
			"queries answered, by chain stage")
		m.errors[name] = r.Counter(`gaugur_fallback_errors_total{stage="`+name+`"}`,
			"stage failures, by chain stage")
		m.transitions[name] = r.Counter(`gaugur_fallback_breaker_transitions_total{stage="`+name+`"}`,
			"circuit-breaker state changes, by chain stage")
		m.breakerState[name] = r.Gauge(`gaugur_fallback_breaker_state{stage="`+name+`"}`,
			"circuit-breaker state, by chain stage (0 closed, 1 half-open, 2 open)")
		m.breakerCalls[name] = r.Gauge(`gaugur_fallback_breaker_calls_in_state{stage="`+name+`"}`,
			"queries consulted since the breaker last changed state (call-counted time-in-stage)")
	}
	f.met = m
	return f
}

// trainMetrics instruments the offline fitting stages.
type trainMetrics struct {
	samples *obs.Gauge
	rmFit   *obs.Histogram
	cmFit   *obs.Histogram
}

// newTrainMetrics resolves the training instrument set against r (all nil
// when r is nil).
func newTrainMetrics(r *obs.Registry) trainMetrics {
	if r == nil {
		return trainMetrics{}
	}
	return trainMetrics{
		samples: r.Gauge("gaugur_train_samples",
			"training samples used by the last Train call"),
		rmFit: r.Histogram(`gaugur_train_stage_seconds{stage="rm"}`, nil,
			"offline model-fitting time, by stage"),
		cmFit: r.Histogram(`gaugur_train_stage_seconds{stage="cm"}`, nil,
			"offline model-fitting time, by stage"),
	}
}
