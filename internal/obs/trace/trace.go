// Package trace is gaugur's dependency-free, deterministic span tracer:
// the "why did the system do X" companion to internal/obs's "how often/how
// long" metrics. A Tracer records trees of named, timed spans grouped into
// traces (one trace per logical decision or pipeline stage), keeps the most
// recent traces in a bounded ring buffer, and exports them as structured
// JSON or Chrome trace-event JSON for chrome://tracing / Perfetto.
//
// A trace is built one way: the goroutine that owns the work opens a Root
// (StartRoot), takes int64 stamps from the tracer's clock as the work
// runs, records each finished child span from its two stamps (Root.Child)
// and ends the root (Root.EndAt), which runs the tail-sampling decision and
// commits the tree. Work split across goroutines hands its stamps back to
// the owner, which records them once the work is joined; no span is ever
// open, so none can outlive its trace.
//
// Design constraints, matching internal/obs:
//
//  1. Zero dependencies. Standard library only.
//  2. Disabled must cost (almost) nothing. Every method is nil-safe: a nil
//     *Tracer yields inert Roots whose methods are single nil checks, so
//     instrumented code traces unconditionally.
//  3. Deterministic identifiers. Trace and span IDs come from a SplitMix64
//     sequence over a caller-supplied seed (derive it from the simulation
//     seed via sim.DeriveSeed), never from time.Now or math/rand
//     global state. Timestamps are read through an injectable Clock; tests
//     swap in a manual clock so exports are bit-identical across runs.
//  4. Tracing never feeds back into traced state: spans observe, they do
//     not participate. The golden and parallel-determinism tests run with
//     tracing enabled to prove simulation outputs stay byte-identical.
//
// A Root can adopt an identifier minted elsewhere — the wire-propagation
// entry point the admission plane uses — and a completed trace passes
// through an optional tail-sampling decision (see TailPolicy in
// sampling.go) before it is retained.
package trace

import (
	"encoding/json"
	"math"
	"strconv"
	"sync/atomic"

	"gaugur/internal/obs"
)

// Clock is obs.Clock: a monotonic timestamp in nanoseconds, so one clock
// can stamp spans, metrics and the stamps both are built from (an
// obs.ManualClock's Now method satisfies it directly).
type Clock = obs.Clock

// attrKind tags which representation an Attr carries.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one span annotation. Construction stores the raw value and
// defers strconv rendering to export time, so building attributes for an
// inert (nil-tracer) Root costs no formatting and no allocation — the
// price instrumented hot paths pay with tracing off is a struct copy.
// Rendering stays deterministic: Value always formats the same bits the
// same way. Attr is comparable; equal inputs build equal attrs.
type Attr struct {
	Key  string
	str  string
	bits uint64
	kind attrKind
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, str: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, bits: uint64(int64(v)), kind: attrInt} }

// Int64 builds a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, bits: uint64(v), kind: attrInt} }

// Float builds a float attribute rendered with %g precision.
func Float(k string, v float64) Attr {
	return Attr{Key: k, bits: math.Float64bits(v), kind: attrFloat}
}

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	var b uint64
	if v {
		b = 1
	}
	return Attr{Key: k, bits: b, kind: attrBool}
}

// Value renders the attribute's value as a string.
func (a Attr) Value() string {
	switch a.kind {
	case attrInt:
		return strconv.FormatInt(int64(a.bits), 10)
	case attrFloat:
		return strconv.FormatFloat(math.Float64frombits(a.bits), 'g', -1, 64)
	case attrBool:
		return strconv.FormatBool(a.bits != 0)
	default:
		return a.str
	}
}

// attrJSON is the wire shape exports have always used.
type attrJSON struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// MarshalJSON renders the attribute in the {"key","value"} export shape.
func (a Attr) MarshalJSON() ([]byte, error) {
	return json.Marshal(attrJSON{Key: a.Key, Value: a.Value()})
}

// UnmarshalJSON round-trips an exported attribute; the value comes back
// as a string attr regardless of its original kind.
func (a *Attr) UnmarshalJSON(data []byte) error {
	var aj attrJSON
	if err := json.Unmarshal(data, &aj); err != nil {
		return err
	}
	*a = String(aj.Key, aj.Value)
	return nil
}

// splitmix64 is the SplitMix64 finalizer — the same mixer sim/derive.go
// uses for per-task measurement seeds, applied here to (seed + n*gamma) so
// the n-th identifier of a tracer is a pure function of its seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Config parameterizes a Tracer.
type Config struct {
	// Seed drives the deterministic trace/span ID sequence. Derive it from
	// the simulation seed (sim.DeriveSeed(seed, "trace", 0)) so the same
	// run always names its traces the same way.
	Seed int64
	// Clock supplies span timestamps; nil selects the real monotonic
	// clock. Pass an obs.ManualClock's Now for bit-identical exports.
	Clock Clock
	// Capacity bounds the ring buffer of completed traces; <= 0 defaults
	// to DefaultCapacity.
	Capacity int
	// Tail enables tail-based sampling: the keep/drop decision runs when
	// a trace completes, so error and slow traces can always be retained
	// while the bulk is sampled down. Nil keeps every trace (the historic
	// behavior).
	Tail *TailPolicy
}

// DefaultCapacity is the default ring-buffer size in completed traces.
const DefaultCapacity = 256

// Tracer mints trace and span identifiers, runs the tail-sampling
// decision, and holds the store completed traces commit to. All methods
// are safe for concurrent use and nil-safe: a nil Tracer is a valid no-op
// tracer. Traces themselves are built by Roots, each owned by one
// goroutine, so the tracer holds no per-trace state.
type Tracer struct {
	clock Clock
	seed  uint64
	idseq atomic.Uint64

	store *Store
	tail  *tailState // nil = keep every completed trace
}

// New builds a tracer from cfg.
func New(cfg Config) *Tracer {
	if cfg.Clock == nil {
		cfg.Clock = obs.New().Now // the real monotonic clock, anchored now
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	t := &Tracer{
		clock: cfg.Clock,
		seed:  splitmix64(uint64(cfg.Seed)),
		store: newStore(cfg.Capacity),
	}
	if cfg.Tail != nil {
		t.tail = newTailState(*cfg.Tail)
	}
	return t
}

// Store exposes the completed-trace ring buffer (nil on a nil tracer).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// Now reads the tracer's clock: the stamp source for spans recorded after
// they end (Root.Child, Root.EndAt). Returns 0 on a nil tracer, so
// stamping code needs no nil checks of its own.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// ClockOr is the one clock rule for code that stamps both spans and
// histograms: the tracer's clock, else r's (which reads 0, with no clock
// read, when r is nil too). Nil-safe.
func (t *Tracer) ClockOr(r *obs.Registry) Clock {
	if t != nil {
		return t.Now
	}
	return r.Now
}

// nextID returns the n-th identifier of the seeded SplitMix64 sequence,
// never zero (zero is the "no parent" sentinel).
func (t *Tracer) nextID() uint64 {
	id := splitmix64(t.seed + t.idseq.Add(1)*0x9e3779b97f4a7c15)
	if id == 0 {
		return 1
	}
	return id
}
