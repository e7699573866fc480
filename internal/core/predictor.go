package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"gaugur/internal/features"
	"gaugur/internal/ml"
	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
	"gaugur/internal/profile"
)

// Predictor is the online face of GAugur: given trained CM and RM models
// and the profile set, it answers interference queries for arbitrary
// colocations instantaneously (Section 3.5, "online prediction").
type Predictor struct {
	Profiles *profile.Set
	Enc      features.Encoder

	// RM quantifies degradation (Equation 4); CM answers the QoS
	// question directly (Equation 3). Either may be nil if only one
	// query type is needed.
	RM ml.Regressor
	CM ml.Classifier

	// QoS is the frame-rate floor the CM was trained against.
	QoS float64

	// met instruments the online query path; see EnableMetrics. The zero
	// value (nil instruments) disables it.
	met predictorMetrics

	// Compiled inference plans (see Compile). When set, every query routes
	// through the flat heap-ordered kernel instead of the model
	// interfaces; outputs are bit-identical either way. rmLog records that
	// the RM plan produces log-degradation (the logRegressor transform) so
	// the compiled path applies the same exp+clamp inverse.
	rmPlan *ml.CompiledForest
	cmPlan *ml.CompiledForest
	rmLog  bool

	// pool recycles per-query scratch (member/feature buffers) across the
	// online query methods, keeping the steady-state path allocation-free
	// and concurrency-safe.
	pool sync.Pool
}

// Compile lowers the fitted RM and CM into ml.CompiledForest plans so the
// online query path traverses flat cache-resident arrays instead of
// pointer-chasing per-tree node slices. Models that cannot compile (SVMs,
// ridge, unfitted models, or trees deeper than the kernel's cut-off — at
// paper scale the DTR/DTC and RF/RFC kinds) silently keep the interface
// path; compiled output is bit-identical to the reference walk, so
// compiling is always safe. Train and LoadPredictor call this
// automatically; call it again after swapping models in place. Returns p
// for chaining.
func (p *Predictor) Compile() *Predictor {
	start := p.met.stamp()
	defer p.met.since(p.met.compile, start)
	p.rmPlan, p.cmPlan, p.rmLog = nil, nil, false
	rm := p.RM
	if lr, ok := rm.(logRegressor); ok {
		rm, p.rmLog = lr.inner, true
	}
	if c, ok := rm.(ml.PlanCompiler); ok {
		if plan, err := c.CompilePlan(); err == nil {
			p.rmPlan = plan
		}
	}
	if c, ok := p.CM.(ml.PlanCompiler); ok {
		if plan, err := c.CompilePlan(); err == nil {
			p.cmPlan = plan
		}
	}
	return p
}

// Compiled reports whether the RM and CM queries are served from compiled
// plans.
func (p *Predictor) Compiled() (rm, cm bool) {
	return p.rmPlan != nil, p.cmPlan != nil
}

// rmPredict answers one RM query from the compiled plan when available,
// reproducing logRegressor.Predict's exp+clamp inverse exactly; otherwise
// it falls through to the model interface.
func (p *Predictor) rmPredict(feat []float64) float64 {
	if p.rmPlan == nil {
		return p.RM.Predict(feat)
	}
	d := p.rmPlan.Eval(feat)
	if !p.rmLog {
		return d
	}
	d = math.Exp(d)
	if d > 1 {
		return 1
	}
	if d < 0 {
		return 0
	}
	return d
}

// rmFromRaw maps a raw compiled-plan output to the final degradation
// ratio: the exact transform chain of logRegressor.Predict (exp and
// clamp, when the plan was compiled from a log-target model) followed by
// the [0,1] clamp PredictDegradation applies. The blocked scoring path
// evaluates four feature vectors in one Eval4 pass and finishes each
// result here, bit-identical to the one-at-a-time path.
func (p *Predictor) rmFromRaw(d float64) float64 {
	if p.rmLog {
		d = math.Exp(d)
		if d > 1 {
			d = 1
		}
		if d < 0 {
			d = 0
		}
	}
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// cmClass answers one CM query from the compiled plan when available.
func (p *Predictor) cmClass(feat []float64) int {
	if p.cmPlan == nil {
		return p.CM.PredictClass(feat)
	}
	return p.cmPlan.Class(feat)
}

// TrainConfig bundles everything Train needs to build a working predictor.
type TrainConfig struct {
	// Samples is the training data from measured colocations.
	Samples *SampleSet
	// RMKind and CMKind select the model families; empty values default
	// to the paper's winners (GBRT and GBDT).
	RMKind RegressorKind
	CMKind ClassifierKind
	// Seed drives any stochastic training.
	Seed int64
	// EncoderK is the profile pressure granularity.
	EncoderK int
	// Metrics, when non-nil, receives per-stage fitting timings and is
	// wired into the returned predictor's query path.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one "train" trace with a child span
	// per model fit. The fits run concurrently; each hands its stamps
	// back and Train records both spans after the join.
	Tracer *trace.Tracer
}

// Train fits both models on the sample set and returns a ready predictor.
func Train(profiles *profile.Set, cfg TrainConfig) (*Predictor, error) {
	if cfg.Samples == nil || cfg.Samples.Len() == 0 {
		return nil, errors.New("core: no training samples")
	}
	if cfg.RMKind == "" {
		cfg.RMKind = GBRT
	}
	if cfg.CMKind == "" {
		cfg.CMKind = GBDT
	}
	rm, err := NewRegressor(cfg.RMKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cm, err := NewClassifier(cfg.CMKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tm := newTrainMetrics(cfg.Metrics)
	tm.samples.Set(float64(cfg.Samples.Len()))
	// The two models share no state and each fit is internally
	// deterministic, so they train concurrently; RM errors are preferred
	// when both fail, matching the old sequential reporting order.
	rx, ry := cfg.Samples.RMMatrices()
	cx, cy := cfg.Samples.CMMatrices()
	// Both fits are stamped on the tracer's clock, else the registry's,
	// and their spans and histograms are recorded here after the join.
	now := cfg.Tracer.ClockOr(cfg.Metrics)
	var root trace.Root
	cfg.Tracer.StartRoot(&root, 0, "train")
	var wg sync.WaitGroup
	var rmErr, cmErr error
	var rmNS, cmNS [2]int64 // start, end
	wg.Add(2)
	go func() {
		defer wg.Done()
		rmNS[0] = now()
		rmErr = rm.Fit(rx, ry)
		rmNS[1] = now()
	}()
	go func() {
		defer wg.Done()
		cmNS[0] = now()
		cmErr = cm.Fit(cx, cy)
		cmNS[1] = now()
	}()
	wg.Wait()
	tm.rmFit.Observe(obs.Seconds(rmNS[0], rmNS[1]))
	tm.cmFit.Observe(obs.Seconds(cmNS[0], cmNS[1]))
	root.Child(0, "fit-rm", rmNS[0], rmNS[1], trace.String("kind", string(cfg.RMKind)), trace.Bool("ok", rmErr == nil))
	root.Child(0, "fit-cm", cmNS[0], cmNS[1], trace.String("kind", string(cfg.CMKind)), trace.Bool("ok", cmErr == nil))
	root.End(
		trace.Int("samples", cfg.Samples.Len()),
		trace.String("rm", string(cfg.RMKind)),
		trace.String("cm", string(cfg.CMKind)),
		trace.Bool("ok", rmErr == nil && cmErr == nil),
	)
	if rmErr != nil {
		return nil, fmt.Errorf("core: fitting %s: %w", cfg.RMKind, rmErr)
	}
	if cmErr != nil {
		return nil, fmt.Errorf("core: fitting %s: %w", cfg.CMKind, cmErr)
	}
	p := &Predictor{
		Profiles: profiles,
		Enc:      newEncoder(cfg.EncoderK),
		RM:       rm,
		CM:       cm,
		QoS:      cfg.Samples.QoS,
	}
	return p.EnableMetrics(cfg.Metrics).Compile(), nil
}

// members resolves a colocation against the profile set.
func (p *Predictor) members(c Colocation) []features.Member {
	out := make([]features.Member, len(c))
	for i, w := range c {
		out[i] = features.NewMember(p.Profiles.Get(w.GameID), w.Res)
	}
	return out
}

// PredictDegradation returns the RM's predicted degradation ratio
// (retained FPS fraction, in [0,1]) for the target workload at index idx
// within the colocation. A game running alone suffers no interference by
// definition, so singletons short-circuit to 1 — the models are only ever
// trained on real colocations.
func (p *Predictor) PredictDegradation(c Colocation, idx int) float64 {
	s := p.getScratch()
	d := p.degradation(s, c, idx)
	p.putScratch(s)
	return d
}

// PredictFPS converts the RM degradation prediction into a frame rate
// using the Equation (2) solo estimate.
func (p *Predictor) PredictFPS(c Colocation, idx int) float64 {
	solo := p.Profiles.Get(c[idx].GameID).SoloFPS(c[idx].Res)
	return solo * p.PredictDegradation(c, idx)
}

// SatisfiesQoS answers Equation (3) for the target workload via the CM.
// Singletons compare the known solo frame rate against the floor directly.
func (p *Predictor) SatisfiesQoS(c Colocation, idx int) bool {
	s := p.getScratch()
	ok := p.satisfies(s, c, idx)
	p.putScratch(s)
	return ok
}

// satisfies answers one CM query from reused buffers, with the same metric
// increments as the public entry point.
func (p *Predictor) satisfies(s *predictScratch, c Colocation, idx int) bool {
	p.met.qosChecks.Inc()
	start := p.met.stamp()
	defer p.met.since(p.met.latency, start)
	if len(c) == 1 {
		return p.Profiles.Get(c[idx].GameID).SoloFPS(c[idx].Res) >= p.QoS
	}
	s.resolve(p, c)
	target, others := s.split(idx)
	s.feat = p.Enc.CMInto(s.feat, p.QoS, target, others)
	return p.cmClass(s.feat) == 1
}

// FeasibleCM reports whether the CM judges EVERY game in the colocation to
// satisfy the QoS floor — the feasibility test of Section 5.1. Members are
// resolved once and shared across the per-game checks.
func (p *Predictor) FeasibleCM(c Colocation) bool {
	s := p.getScratch()
	ok := true
	for i := range c {
		if !p.satisfies(s, c, i) {
			ok = false
			break
		}
	}
	p.putScratch(s)
	return ok
}

// FeasibleRM applies the RM for classification: predict each game's frame
// rate and compare against the QoS floor (how the paper applies regression
// models to the feasibility question).
func (p *Predictor) FeasibleRM(c Colocation) bool {
	var buf [8]float64
	for _, fps := range p.PredictFPSBatch(c, buf[:0]) {
		if fps < p.QoS {
			return false
		}
	}
	return true
}

// MemoryFits applies the Section 3.2 memory admission rule from profiles
// (memory is not interference-predicted, just capacity-checked).
func (p *Predictor) MemoryFits(c Colocation, cpuCap, gpuCap float64) bool {
	var cpu, gpu float64
	for _, w := range c {
		prof := p.Profiles.Get(w.GameID)
		cpu += prof.CPUMem
		gpu += prof.GPUMem
	}
	return cpu <= cpuCap && gpu <= gpuCap
}
