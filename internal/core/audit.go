package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"gaugur/internal/obs"
	"gaugur/internal/sim"
)

// Prediction audit log + online model-quality monitor. Every placement the
// dispatcher makes rests on a model prediction; this file closes the loop
// by recording what was predicted at decision time and resolving it against
// what the session actually got. The rolling comparison is the online
// drift detector: when the serving-time error distribution drifts away
// from the offline evaluation (a perturbed fleet, stale profiles, a bad
// model push), the alarm fires long before an offline re-evaluation would
// notice. The Auditor implements sched.AuditSink structurally — sched
// defines the interface, core supplies the model-aware implementation.

// AuditOutcome labels the lifecycle terminal state of an audit record.
type AuditOutcome string

const (
	// AuditPending marks a record still awaiting ground truth.
	AuditPending AuditOutcome = "pending"
	// AuditResolved marks a record matched against an observed frame rate.
	AuditResolved AuditOutcome = "resolved"
	// AuditDropped marks a session lost to faults before any observation.
	AuditDropped AuditOutcome = "dropped"
	// AuditSuperseded marks a record replaced by a re-placement (migration)
	// of the same session; only the newest placement is resolved.
	AuditSuperseded AuditOutcome = "superseded"
	// AuditEvicted marks a pending record pushed out of the bounded ring
	// before its session departed.
	AuditEvicted AuditOutcome = "evicted"
)

// AuditRecord is one placement-time prediction and, once resolved, its
// ground truth.
type AuditRecord struct {
	// Session and Game identify the placed session.
	Session int
	Game    int
	// Games is the server's post-placement colocation (sorted game IDs).
	Games []int
	// FeaturesDigest fingerprints the RM input vector the prediction was
	// made from (FNV-1a over the raw float bits; 0 when no model ran), so
	// identical states can be grouped without storing the vector.
	FeaturesDigest uint64
	// ModelVersion is the predictor serialization version (PredictorVersion).
	ModelVersion int
	// Stage names the fallback stage that answered ("model", "capacity");
	// "direct" when auditing a bare Predictor.
	Stage string
	// PredictedFPS and PredictedOK are the decision-time answers: the RM
	// frame-rate estimate and the QoS feasibility call.
	PredictedFPS float64
	PredictedOK  bool
	// ObservedFPS is the frame rate observed while the recorded colocation
	// was still running (resolved records only) — see sched.AuditSink.
	ObservedFPS float64
	// Outcome is the record's lifecycle state.
	Outcome AuditOutcome

	// Retained feature vectors (RetainExamples > 0, multi-tenant records
	// only): the exact RM/CM inputs the prediction was made from plus the
	// target's solo frame rate, held until the record resolves into a
	// TrainExample.
	rmx, cmx []float64
	solo     float64
	// gen is the serving handle's swap generation at placement time; a
	// record resolved under a different generation was predicted by a
	// since-retired model and is excluded from the quality windows.
	gen uint64
}

// TrainExample is one resolved audit record turned into training data: the
// decision-time feature vectors paired with the observed ground truth. The
// drift-recovery retrainer fits fresh models from a ring of these.
type TrainExample struct {
	// RMX/CMX are the RM and CM input vectors captured at placement time.
	RMX, CMX []float64
	// RMY is the observed degradation ratio (observed FPS over solo FPS);
	// CMY is 1 when the observed frame rate cleared the QoS floor.
	RMY, CMY float64
	// Seq is the example's position in the auditor's append sequence
	// (monotonically increasing, never reused) — ExamplesSince uses it to
	// select only evidence gathered after a drift alarm.
	Seq int64
}

// AuditorConfig tunes the audit log and quality monitor.
type AuditorConfig struct {
	// Capacity bounds the record ring; <= 0 defaults to 1024. Pending
	// records evicted by the ring count as expired, never resolved.
	Capacity int
	// Window is the rolling quality window in resolved records; <= 0
	// defaults to 256.
	Window int
	// MinResolved is how many resolved records the window needs before the
	// drift alarm may fire; <= 0 defaults to 16.
	MinResolved int
	// MAEThreshold is the rolling RM mean-absolute-error (in FPS) above
	// which the drift alarm trips; <= 0 defaults to 10. The alarm clears
	// with hysteresis at 0.8x the threshold.
	MAEThreshold float64
	// RetainExamples bounds the ring of resolved feature vectors + ground
	// truth kept for drift-triggered retraining; 0 disables retention.
	// Only multi-tenant placements are retained — singletons carry no
	// interference signal and the models never train on them.
	RetainExamples int
	// Metrics, when non-nil, publishes the quality gauges, lifecycle
	// counters, and the calibration histogram.
	Metrics *obs.Registry
}

func (c AuditorConfig) withDefaults() AuditorConfig {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.MinResolved <= 0 {
		c.MinResolved = 16
	}
	if c.MAEThreshold <= 0 {
		c.MAEThreshold = 10
	}
	return c
}

// calibrationBuckets bound the observed/predicted FPS ratio histogram:
// dense around the perfect-calibration ratio of 1.
var calibrationBuckets = []float64{0.5, 0.8, 0.9, 0.95, 1, 1.05, 1.1, 1.25, 2}

// rollingMean is an O(1) fixed-window running mean.
type rollingMean struct {
	buf  []float64
	head int
	n    int
	sum  float64
}

func newRollingMean(window int) *rollingMean {
	return &rollingMean{buf: make([]float64, window)}
}

func (r *rollingMean) add(v float64) {
	if r.n == len(r.buf) {
		r.sum -= r.buf[r.head]
	} else {
		r.n++
	}
	r.buf[r.head] = v
	r.sum += v
	r.head = (r.head + 1) % len(r.buf)
}

func (r *rollingMean) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

func (r *rollingMean) count() int { return r.n }

// auditPrediction is one placement-time prediction: the decision-time
// answers plus (when retention is requested and features are available)
// the raw input vectors and solo frame rate needed to later turn the
// resolved record into a TrainExample.
type auditPrediction struct {
	fps    float64
	ok     bool
	stage  string
	digest uint64
	gen    uint64
	rmx    []float64
	cmx    []float64
	solo   float64
}

// auditPredictFn answers a placement-time prediction for the session at
// index idx of the colocation; retain asks for the feature vectors too.
type auditPredictFn func(games []int, idx int, retain bool) auditPrediction

// auditMetrics holds the optional registry instruments (nil when disabled).
type auditMetrics struct {
	placed, resolved, dropped, superseded, evicted, unmatched, alarms *obs.Counter
	pending, mae, accuracy, falsePass, drifting                       *obs.Gauge
	calibration                                                       *obs.Histogram
}

// Auditor is the bounded prediction audit log plus rolling model-quality
// monitor. Safe for concurrent use (the serving loop writes, HTTP and CLI
// readers poll Summary). All methods are nil-safe, so wiring is opt-in:
//
//	var aud *core.Auditor            // disabled
//	cfg.Audit = core.NewAuditor(...) // enabled
type Auditor struct {
	mu      sync.Mutex
	predict auditPredictFn
	qos     float64
	cfg     AuditorConfig

	// ring of records, all outcomes; bySession points at the pending
	// record of each live session.
	ring      []*AuditRecord
	head      int
	size      int
	bySession map[int]*AuditRecord

	// genFn reads the serving handle's swap generation (nil when the
	// auditor watches a fixed model). A record placed under one generation
	// but resolved under another belongs to a RETIRED model: its error is
	// kept out of the rolling quality windows (charging the old model's
	// mistakes to the freshly promoted one would trigger bogus rollbacks),
	// while its ground truth still feeds the retention ring — the physics
	// evidence is model-independent.
	genFn func() uint64

	// lifecycle tallies (mirror the ring, which forgets old records).
	placed, resolved, dropped, superseded, evicted, unmatched int64

	// rolling quality state over resolved records.
	absErr    *rollingMean // |predicted - observed| FPS
	correct   *rollingMean // 1 when the QoS call matched reality
	falsePass *rollingMean // 1 when predicted-OK but observed < QoS
	drifting  bool
	alarms    int64

	// retention ring of resolved examples for drift-triggered retraining
	// (nil when RetainExamples == 0). exSeq is the append sequence number
	// the NEXT example will get; it only ever grows, so sequence windows
	// survive ring eviction.
	examples []TrainExample
	exHead   int
	exSize   int
	exSeq    int64

	met auditMetrics
}

// NewAuditor builds an auditor over the serving predictor. When fb is
// non-nil, predictions flow through the fallback chain (recording which
// stage answered); otherwise p answers directly. p additionally supplies
// the CM feasibility call and the feature digest when present. qos is the
// frame-rate floor observations are judged against.
func NewAuditor(fb *FallbackPredictor, p *Predictor, qos float64, cfg AuditorConfig) *Auditor {
	return NewAuditorHandle(fb, NewModelHandle(p), qos, cfg)
}

// NewAuditorHandle is NewAuditor over a swappable model slot: every
// prediction resolves the CURRENT model through the handle, so after a
// lifecycle hot swap the audit log scores the newly promoted model without
// rebuilding any wiring. Pass the same handle the FallbackPredictor serves
// from to audit the serving path, or a different one to shadow-audit a
// candidate that never serves.
func NewAuditorHandle(fb *FallbackPredictor, h *ModelHandle, qos float64, cfg AuditorConfig) *Auditor {
	predict := func(games []int, idx int, retain bool) auditPrediction {
		c := ColocationOf(games)
		p := h.Load()
		out := auditPrediction{gen: h.Generation()}
		if p != nil && p.Profiles != nil && len(c) > 1 {
			m := p.members(c)
			target := m[idx]
			others := append(m[:idx:idx], m[idx+1:]...)
			rmx := p.Enc.RM(target, others)
			out.digest = featureDigest(rmx)
			if retain {
				out.rmx = rmx
				out.cmx = p.Enc.CM(qos, target, others)
				out.solo = p.Profiles.Get(c[idx].GameID).SoloFPS(c[idx].Res)
			}
		}
		if fb != nil {
			fps, stage, err := fb.PredictFPS(c, idx)
			ok := fps >= qos
			if err != nil {
				stage = "none"
				ok = false
			} else if p != nil && p.CM != nil && stage == "model" {
				ok = p.SatisfiesQoS(c, idx)
			}
			out.fps, out.ok, out.stage = fps, ok, stage
			return out
		}
		fps := p.PredictFPS(c, idx)
		ok := fps >= qos
		if p.CM != nil {
			ok = p.SatisfiesQoS(c, idx)
		}
		out.fps, out.ok, out.stage = fps, ok, "direct"
		return out
	}
	a := newAuditor(predict, qos, cfg)
	a.genFn = h.Generation
	return a
}

// NewAuditorFunc builds an auditor over a bare prediction function — the
// hook tests and custom serving stacks use. predict answers the estimated
// FPS and QoS call for the session at index idx of the colocation.
func NewAuditorFunc(predict func(games []int, idx int) (fps float64, ok bool), qos float64, cfg AuditorConfig) *Auditor {
	return newAuditor(func(games []int, idx int, retain bool) auditPrediction {
		fps, ok := predict(games, idx)
		return auditPrediction{fps: fps, ok: ok, stage: "direct"}
	}, qos, cfg)
}

func newAuditor(predict auditPredictFn, qos float64, cfg AuditorConfig) *Auditor {
	cfg = cfg.withDefaults()
	a := &Auditor{
		predict:   predict,
		qos:       qos,
		cfg:       cfg,
		ring:      make([]*AuditRecord, cfg.Capacity),
		bySession: make(map[int]*AuditRecord),
		absErr:    newRollingMean(cfg.Window),
		correct:   newRollingMean(cfg.Window),
		falsePass: newRollingMean(cfg.Window),
	}
	if cfg.RetainExamples > 0 {
		a.examples = make([]TrainExample, cfg.RetainExamples)
	}
	if r := cfg.Metrics; r != nil {
		a.met = auditMetrics{
			placed:     r.Counter("gaugur_audit_placed_total", "placement predictions recorded"),
			resolved:   r.Counter("gaugur_audit_resolved_total", "audit records resolved against observed FPS"),
			dropped:    r.Counter("gaugur_audit_dropped_total", "audited sessions lost to faults before observation"),
			superseded: r.Counter("gaugur_audit_superseded_total", "audit records replaced by a re-placement"),
			evicted:    r.Counter("gaugur_audit_evicted_total", "pending audit records evicted by the bounded ring"),
			unmatched:  r.Counter("gaugur_audit_unmatched_total", "observations with no pending audit record"),
			alarms:     r.Counter("gaugur_quality_drift_alarms_total", "rising edges of the model-drift alarm"),
			pending:    r.Gauge("gaugur_audit_pending", "audit records awaiting ground truth"),
			mae:        r.Gauge("gaugur_quality_rm_mae", "rolling mean absolute FPS error of resolved predictions"),
			accuracy:   r.Gauge("gaugur_quality_cm_accuracy", "rolling accuracy of the QoS feasibility call"),
			falsePass:  r.Gauge("gaugur_quality_false_qos_pass_rate", "rolling rate of predicted-OK sessions observed below QoS"),
			drifting:   r.Gauge("gaugur_quality_drift", "1 while the rolling RM MAE exceeds the drift threshold"),
			calibration: r.Histogram("gaugur_quality_calibration", calibrationBuckets,
				"observed/predicted FPS ratio of resolved predictions (1 = perfectly calibrated)"),
		}
	}
	return a
}

// featureDigest fingerprints a model input vector: FNV-1a over the raw
// IEEE-754 bits, so equal vectors always collide and nothing is stored.
func featureDigest(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// indexOf finds the target game's position in the sorted colocation. When
// the game appears multiple times any copy is equivalent (same features).
func indexOf(games []int, game int) int {
	for i, g := range games {
		if g == game {
			return i
		}
	}
	return 0
}

// Placed implements sched.AuditSink: record the placement-time prediction.
func (a *Auditor) Placed(sid, game int, games []int) {
	if a == nil {
		return
	}
	gamesCopy := append([]int(nil), games...)
	pr := a.predict(gamesCopy, indexOf(gamesCopy, game), a.cfg.RetainExamples > 0)

	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, live := a.bySession[sid]; live {
		// A migration re-placed the session: only the newest placement
		// will be resolved.
		prev.Outcome = AuditSuperseded
		a.superseded++
		a.met.superseded.Inc()
	}
	rec := &AuditRecord{
		Session:        sid,
		Game:           game,
		Games:          gamesCopy,
		FeaturesDigest: pr.digest,
		ModelVersion:   PredictorVersion,
		Stage:          pr.stage,
		PredictedFPS:   pr.fps,
		PredictedOK:    pr.ok,
		Outcome:        AuditPending,
		rmx:            pr.rmx,
		cmx:            pr.cmx,
		solo:           pr.solo,
		gen:            pr.gen,
	}
	if old := a.ring[a.head]; old != nil && old.Outcome == AuditPending {
		old.Outcome = AuditEvicted
		delete(a.bySession, old.Session)
		a.evicted++
		a.met.evicted.Inc()
	}
	a.ring[a.head] = rec
	a.head = (a.head + 1) % len(a.ring)
	if a.size < len(a.ring) {
		a.size++
	}
	a.bySession[sid] = rec
	a.placed++
	a.met.placed.Inc()
	a.met.pending.Set(float64(len(a.bySession)))
}

// Observed implements sched.AuditSink: resolve the pending record against
// the frame rate observed under the recorded colocation and fold the
// result into the rolling quality windows.
func (a *Auditor) Observed(sid int, fps float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, live := a.bySession[sid]
	if !live {
		a.unmatched++
		a.met.unmatched.Inc()
		return
	}
	delete(a.bySession, sid)
	rec.ObservedFPS = fps
	rec.Outcome = AuditResolved
	a.resolved++
	a.met.resolved.Inc()
	a.met.pending.Set(float64(len(a.bySession)))

	// A record placed under an older serving generation was predicted by a
	// model that has since been swapped out: its error belongs to the
	// retired model, not to the one the quality windows currently judge.
	current := a.genFn == nil || rec.gen == a.genFn()
	if current {
		a.absErr.add(math.Abs(rec.PredictedFPS - fps))
		hit := 0.0
		if rec.PredictedOK == (fps >= a.qos) {
			hit = 1
		}
		a.correct.add(hit)
		fp := 0.0
		if rec.PredictedOK && fps < a.qos {
			fp = 1
		}
		a.falsePass.add(fp)
	}
	// Ground truth is model-independent — retain it as retraining evidence
	// regardless of which generation predicted it.
	if rec.rmx != nil {
		cmy := 0.0
		if fps >= a.qos {
			cmy = 1
		}
		a.retainExample(TrainExample{
			RMX: rec.rmx,
			CMX: rec.cmx,
			RMY: sim.Degradation(fps, rec.solo),
			CMY: cmy,
			Seq: a.exSeq,
		})
	}
	if current {
		if rec.PredictedFPS > 0 {
			a.met.calibration.Observe(fps / rec.PredictedFPS)
		}
		a.met.mae.Set(a.absErr.mean())
		a.met.accuracy.Set(a.correct.mean())
		a.met.falsePass.Set(a.falsePass.mean())
		a.updateDrift()
	}
}

// Dropped implements sched.AuditSink: the session was lost to faults, no
// observation will arrive.
func (a *Auditor) Dropped(sid int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, live := a.bySession[sid]
	if !live {
		return
	}
	delete(a.bySession, sid)
	rec.Outcome = AuditDropped
	a.dropped++
	a.met.dropped.Inc()
	a.met.pending.Set(float64(len(a.bySession)))
}

// updateDrift applies the hysteresis alarm: trip when the rolling MAE
// crosses the threshold with enough resolved evidence, clear only once it
// falls back below 0.8x the threshold. Callers hold a.mu.
func (a *Auditor) updateDrift() {
	if a.absErr.count() < a.cfg.MinResolved {
		return
	}
	mae := a.absErr.mean()
	switch {
	case !a.drifting && mae > a.cfg.MAEThreshold:
		a.drifting = true
		a.alarms++
		a.met.alarms.Inc()
		a.met.drifting.Set(1)
	case a.drifting && mae < 0.8*a.cfg.MAEThreshold:
		a.drifting = false
		a.met.drifting.Set(0)
	}
}

// retainExample folds one resolved example into the bounded retention ring
// (no-op when retention is disabled). Callers hold a.mu.
func (a *Auditor) retainExample(ex TrainExample) {
	if a.examples == nil {
		return
	}
	a.examples[a.exHead] = ex
	a.exHead = (a.exHead + 1) % len(a.examples)
	if a.exSize < len(a.examples) {
		a.exSize++
	}
	a.exSeq++
}

// ExamplesSince returns copies of every retained example with Seq >= seq,
// oldest first. The lifecycle retrainer passes the sequence number captured
// at the drift-alarm rising edge, so only post-drift evidence is fitted.
func (a *Auditor) ExamplesSince(seq int64) []TrainExample {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TrainExample, 0, a.exSize)
	for i := 0; i < a.exSize; i++ {
		idx := (a.exHead - a.exSize + i + len(a.examples)) % len(a.examples)
		if a.examples[idx].Seq >= seq {
			out = append(out, a.examples[idx])
		}
	}
	return out
}

// RetainedExamples reports how many resolved examples the retention ring
// currently holds.
func (a *Auditor) RetainedExamples() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.exSize
}

// ExampleSeq returns the sequence number the NEXT retained example will
// get. Capturing it at a drift-alarm rising edge and later asking for
// ExamplesSince(captured) selects exactly the evidence gathered after the
// alarm.
func (a *Auditor) ExampleSeq() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.exSeq
}

// ResetWindows clears the rolling quality windows and the drift alarm —
// called after a model promotion so the new model is judged on its own
// record, not the drifted predecessor's. The audit ring, lifecycle tallies,
// and retained examples are kept.
func (a *Auditor) ResetWindows() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.absErr = newRollingMean(a.cfg.Window)
	a.correct = newRollingMean(a.cfg.Window)
	a.falsePass = newRollingMean(a.cfg.Window)
	a.drifting = false
	a.met.mae.Set(0)
	a.met.accuracy.Set(0)
	a.met.falsePass.Set(0)
	a.met.drifting.Set(0)
}

// Drifting reports whether the drift alarm is currently raised.
func (a *Auditor) Drifting() bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.drifting
}

// Recent returns up to n retained audit records, newest first (all retained
// records when n <= 0). Records are copies; Games slices are shared but
// never mutated after creation.
func (a *Auditor) Recent(n int) []AuditRecord {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n <= 0 || n > a.size {
		n = a.size
	}
	out := make([]AuditRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := (a.head - 1 - i + len(a.ring)) % len(a.ring)
		out = append(out, *a.ring[idx])
	}
	return out
}

// QualitySummary is the monitor's reportable state.
type QualitySummary struct {
	// Lifecycle tallies since construction (not bounded by the ring).
	Placed, Resolved, Dropped, Superseded, Evicted, Unmatched int64
	// Pending counts records still awaiting ground truth.
	Pending int
	// RMMAE is the rolling mean absolute FPS error, CMAccuracy the rolling
	// QoS-call accuracy, FalseQoSPassRate the rolling rate of predicted-OK
	// sessions observed below the floor — all over WindowResolved records.
	RMMAE            float64
	CMAccuracy       float64
	FalseQoSPassRate float64
	WindowResolved   int
	// Drifting and DriftAlarms describe the hysteresis alarm.
	Drifting    bool
	DriftAlarms int64
	// ModelVersion stamps which predictor generation is being audited.
	ModelVersion int
}

// Summary snapshots the quality monitor (zero value on a nil auditor).
func (a *Auditor) Summary() QualitySummary {
	if a == nil {
		return QualitySummary{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return QualitySummary{
		Placed:           a.placed,
		Resolved:         a.resolved,
		Dropped:          a.dropped,
		Superseded:       a.superseded,
		Evicted:          a.evicted,
		Unmatched:        a.unmatched,
		Pending:          len(a.bySession),
		RMMAE:            a.absErr.mean(),
		CMAccuracy:       a.correct.mean(),
		FalseQoSPassRate: a.falsePass.mean(),
		WindowResolved:   a.absErr.count(),
		Drifting:         a.drifting,
		DriftAlarms:      a.alarms,
		ModelVersion:     PredictorVersion,
	}
}
