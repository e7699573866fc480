package trace

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// TailPolicy configures tail-based sampling: the keep/drop decision runs
// when a trace *completes*, so it can see the outcome — which is the whole
// point. Three rules apply in order:
//
//  1. Force-kept traces (Root.Keep — error paths, shed admissions, 429s)
//     are always retained.
//  2. Slow traces are always retained: once Warmup roots have completed,
//     the sampler tracks a log2-bucketed duration distribution and keeps
//     everything at or above the bucket floor containing the SlowQuantile
//     point. The bucket floor is conservative — it retains a superset of
//     the true slowest (1-SlowQuantile) fraction, never a subset.
//  3. Everything else is kept with probability Rate, decided by hashing
//     the trace ID against a fixed threshold. Because propagated trace
//     IDs are themselves deterministic (loadgen derives them from the
//     simulation seed), the same replay keeps the same traces — sampling
//     never makes a run less reproducible.
//
// Dropped traces never reach the store: the ring's capacity is spent
// entirely on forced, slow, and sampled-in traces.
type TailPolicy struct {
	// Rate is the baseline keep probability in [0, 1] for traces neither
	// forced nor slow. 1 keeps everything, 0 keeps only forced and slow
	// traces.
	Rate float64
	// SlowQuantile is the duration quantile above which traces are always
	// kept; <= 0 or >= 1 defaults to 0.99.
	SlowQuantile float64
	// Warmup is how many completed roots the sampler observes before the
	// slow rule arms (the distribution is meaningless on a handful of
	// points); <= 0 defaults to 128.
	Warmup int
}

// TailStats is a point-in-time snapshot of the sampler's decisions.
type TailStats struct {
	// Rate echoes the configured baseline keep probability.
	Rate float64 `json:"rate"`
	// KeptForced counts traces retained because Root.Keep was called.
	KeptForced int64 `json:"kept_forced"`
	// KeptSlow counts traces retained by the slow-quantile rule.
	KeptSlow int64 `json:"kept_slow"`
	// KeptRate counts traces retained by the baseline rate.
	KeptRate int64 `json:"kept_rate"`
	// Dropped counts traces the sampler discarded.
	Dropped int64 `json:"dropped"`
	// SlowThresholdNS is the current always-keep duration floor (0 while
	// the rule is still warming up).
	SlowThresholdNS int64 `json:"slow_threshold_ns"`
}

// tailSalt decorrelates the sampling hash from the ID-generation mixer so
// a tracer-minted ID's keep decision is independent of its position in
// the SplitMix64 sequence.
const tailSalt = 0x7f4a7c159e3779b9

// tailState is the sampler's mutable state. Everything is atomic: the
// decision runs on every root End across all producer goroutines, so it
// must not introduce a shared lock.
type tailState struct {
	rate     float64
	rateBits uint64 // keep when splitmix64(id^salt) < rateBits
	quantile float64
	warmup   int64

	// counts is a log2-bucketed histogram of completed-trace durations:
	// bucket b holds durations with bits.Len64 == b, i.e. [2^(b-1), 2^b).
	// Every 64th root recomputes the slow threshold from it — a cheap,
	// allocation-free approximation of the running duration quantile.
	counts    [65]atomic.Int64
	total     atomic.Int64
	threshold atomic.Int64 // always-keep floor in ns; 0 = not yet armed

	keptForced atomic.Int64
	keptSlow   atomic.Int64
	keptRate   atomic.Int64
	dropped    atomic.Int64
}

func newTailState(p TailPolicy) *tailState {
	ts := &tailState{rate: p.Rate, quantile: p.SlowQuantile, warmup: int64(p.Warmup)}
	if ts.quantile <= 0 || ts.quantile >= 1 {
		ts.quantile = 0.99
	}
	if ts.warmup <= 0 {
		ts.warmup = 128
	}
	switch {
	case p.Rate >= 1:
		ts.rate = 1
		ts.rateBits = math.MaxUint64
	case p.Rate <= 0:
		ts.rate = 0
		ts.rateBits = 0
	default:
		// Rate scaled to the full uint64 range; Rate < 1 keeps the
		// product below 2^64 so the conversion is exact.
		ts.rateBits = uint64(p.Rate * float64(math.MaxUint64))
	}
	return ts
}

// tailKeep decides whether a completed trace is retained. With no policy
// configured every trace is kept — the historic behavior.
func (t *Tracer) tailKeep(traceID uint64, durNS int64, forced bool) bool {
	ts := t.tail
	if ts == nil {
		return true
	}
	if durNS < 0 {
		durNS = 0
	}
	ts.counts[bits.Len64(uint64(durNS))].Add(1)
	n := ts.total.Add(1)
	if n >= ts.warmup && n%64 == 0 {
		ts.recompute(n)
	}
	if forced {
		ts.keptForced.Add(1)
		return true
	}
	if th := ts.threshold.Load(); th > 0 && durNS >= th {
		ts.keptSlow.Add(1)
		return true
	}
	if splitmix64(traceID^tailSalt) < ts.rateBits {
		ts.keptRate.Add(1)
		return true
	}
	ts.dropped.Add(1)
	return false
}

// WouldKeep reports whether a root trace with this identifier, duration,
// and forced flag would be retained by the tail sampler right now,
// without recording a decision (End still runs the real one).
// Instrumentation uses it to skip materializing child spans for traces
// that are about to be dropped — the bulk, at production sampling rates.
// The peek can disagree with the eventual End decision only when the
// slow threshold moves in between or the true duration crosses it;
// either way the result is harmless (a kept trace with fewer children,
// or one wasted materialization).
func (t *Tracer) WouldKeep(traceID uint64, durNS int64, forced bool) bool {
	if t == nil {
		return false
	}
	ts := t.tail
	if ts == nil || forced {
		return true
	}
	if th := ts.threshold.Load(); th > 0 && durNS >= th {
		return true
	}
	return splitmix64(traceID^tailSalt) < ts.rateBits
}

// recompute walks the duration histogram from the slow end and installs
// the bucket floor covering the top (1-quantile) fraction as the new
// always-keep threshold. Concurrent Adds can skew the walk by a few
// counts; the threshold is a conservative floor either way.
func (ts *tailState) recompute(n int64) {
	slow := n - int64(float64(n)*ts.quantile)
	if slow < 1 {
		slow = 1
	}
	// Bucket 64 (durations >= 2^63 ns) folds into the top of the walk so
	// the shift below never overflows int64.
	cum := ts.counts[64].Load()
	for b := 63; b >= 1; b-- {
		cnt := ts.counts[b].Load()
		if cum+cnt >= slow {
			// The crossing lands inside bucket b = [2^(b-1), 2^b). The
			// bucket floor alone overshoots badly when the bucket holds
			// most of the mass (log2 buckets are coarse next to a tight
			// latency distribution), so interpolate linearly within the
			// bucket and keep only its slowest share.
			lo := int64(1) << (b - 1)
			th := lo
			if need := slow - cum; cnt > 0 && need < cnt {
				th = lo + int64(float64(lo)*(1-float64(need)/float64(cnt)))
			}
			ts.threshold.Store(th)
			return
		}
		cum += cnt
	}
	ts.threshold.Store(1)
}

// TailStats snapshots the sampler's decision counters. The zero TailStats
// (with Rate 1) comes back when sampling is disabled or the tracer is nil.
func (t *Tracer) TailStats() TailStats {
	if t == nil || t.tail == nil {
		return TailStats{Rate: 1}
	}
	ts := t.tail
	return TailStats{
		Rate:            ts.rate,
		KeptForced:      ts.keptForced.Load(),
		KeptSlow:        ts.keptSlow.Load(),
		KeptRate:        ts.keptRate.Load(),
		Dropped:         ts.dropped.Load(),
		SlowThresholdNS: ts.threshold.Load(),
	}
}

// TailEnabled reports whether tail sampling is configured.
func (t *Tracer) TailEnabled() bool { return t != nil && t.tail != nil }
