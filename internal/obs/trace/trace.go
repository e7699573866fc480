// Package trace is gaugur's dependency-free, deterministic span tracer:
// the "why did the system do X" companion to internal/obs's "how often/how
// long" metrics. A Tracer records trees of named, timed spans grouped into
// traces (one trace per logical decision or pipeline stage), keeps the most
// recent traces in a bounded ring buffer, and exports them as structured
// JSON or Chrome trace-event JSON for chrome://tracing / Perfetto.
//
// Design constraints, matching internal/obs:
//
//  1. Zero dependencies. Standard library only.
//  2. Disabled must cost (almost) nothing. Every method is nil-safe: a nil
//     *Tracer yields inert Ctx values whose methods are single nil checks,
//     so instrumented code traces unconditionally.
//  3. Deterministic identifiers. Trace and span IDs come from a SplitMix64
//     sequence over a caller-supplied seed (derive it from the simulation
//     seed via sim.DeriveSeed), never from time.Now or math/rand
//     global state. Timestamps are read through an injectable Clock; tests
//     swap in a manual clock so exports are bit-identical across runs.
//  4. Tracing never feeds back into traced state: spans observe, they do
//     not participate. The golden and parallel-determinism tests run with
//     tracing enabled to prove simulation outputs stay byte-identical.
//
// Traces can be rooted at identifiers minted elsewhere (StartTraceWithID) —
// the wire-propagation entry point the admission plane uses — and a
// completed trace passes through an optional tail-sampling decision (see
// TailPolicy in sampling.go) before it is retained.
package trace

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
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
// inert (nil-tracer) Ctx costs no formatting and no allocation — the
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

// liveTrace is one in-flight trace: the header plus everything the tracer
// needs to guard it. Each live trace carries its own mutex so concurrent
// producers touching different traces never contend (the tracer's own
// mutex only guards the free list). The Trace value itself stays a plain
// struct because the store copies it by value on commit.
type liveTrace struct {
	mu   sync.Mutex
	tr   Trace
	gen  uint64 // bumped on commit; stale Ctx generations are dropped
	keep bool   // tail-sampling force-keep, set via Ctx.Keep
	// arena backs every committed span's attribute slice for this
	// occupancy. Spans reference subranges; the store deep-copies them on
	// commit, so the arena is reset and reused with the header.
	arena []Attr
}

// Tracer records spans into a bounded store. All methods are safe for
// concurrent use and nil-safe: a nil Tracer is a valid no-op tracer.
type Tracer struct {
	clock Clock
	seed  uint64
	idseq atomic.Uint64

	// free recycles committed trace headers (each in-flight trace carries
	// its own lock, see liveTrace). A sync.Pool rather than a mutexed
	// slice: starting and finishing a trace are per-request hot-path
	// operations across every producer goroutine, and the pool's per-P
	// caches keep them off a shared lock.
	free sync.Pool

	store *Store
	tail  *tailState // nil = keep every completed trace

	// curMu guards the ambient trace context for single-consumer serving
	// loops (see SetCurrent); concurrent pipelines pass Ctx explicitly.
	curMu sync.Mutex
	cur   Ctx

	droppedSpans atomic.Int64
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

// Now reads the tracer's clock: the timestamp source for pre-timed spans
// recorded later via StartSpanAt/EndAt/Event. Returns 0 on a nil tracer,
// so stamping code needs no nil checks of its own.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// DroppedSpans counts spans that ended after their trace was already
// committed (a leak in the instrumentation, not the tracer).
func (t *Tracer) DroppedSpans() int64 {
	if t == nil {
		return 0
	}
	return t.droppedSpans.Load()
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

// Ctx is one in-flight span: the handle instrumented code threads through
// the work it measures. The zero Ctx (and any Ctx from a nil tracer) is
// inert — every method is a no-op.
type Ctx struct {
	t       *Tracer
	lt      *liveTrace // the in-flight trace this span belongs to
	gen     uint64     // lt's generation when this span started
	traceID uint64
	spanID  uint64
	parent  uint64
	name    string
	start   int64
	root    bool

	// attrs accumulate until End (which copies them into the trace's
	// arena). Start copies its variadic attrs rather than retaining the
	// caller's slice: retaining would make the parameter escape at every
	// call site, heap-allocating the spread even on inert (nil-tracer)
	// contexts — and untraced hot paths like the greedy policy's
	// cached-hit placement are guarded zero-alloc. The copy itself only
	// runs on live contexts, where a span allocation is already due.
	attrs []Attr
}

// copyAttrs detaches a Start call's variadic attrs so the parameter never
// escapes; the spare capacity absorbs typical End-time attrs without a
// second growth.
func copyAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]Attr, len(attrs), len(attrs)+2)
	copy(out, attrs)
	return out
}

// StartTrace opens a new trace rooted at a span called name. End the
// returned Ctx to commit the whole trace to the store. Trace headers and
// their span buffers are recycled through a free list once committed (the
// store keeps its own copy), so a steady decision loop allocates almost
// nothing per trace.
func (t *Tracer) StartTrace(name string, attrs ...Attr) Ctx {
	if t == nil {
		return Ctx{}
	}
	return t.StartTraceWithID(0, name, attrs...)
}

// StartTraceWithID opens a trace whose identifier was minted elsewhere —
// the wire-propagation entry point: a load generator derives the ID from
// its simulation seed, carries it over HTTP or the binary protocol, and
// the server adopts it here so the whole admission reads as one trace
// rooted at the client-minted identity. An id of 0 draws the next
// identifier from the tracer's own deterministic sequence, which is what
// StartTrace does.
func (t *Tracer) StartTraceWithID(id uint64, name string, attrs ...Attr) Ctx {
	if t == nil {
		return Ctx{}
	}
	if id == 0 {
		id = t.nextID()
	}
	spanID := t.nextID()
	start := t.clock()
	lt, _ := t.free.Get().(*liveTrace)
	if lt == nil {
		lt = &liveTrace{tr: Trace{Spans: make([]Span, 0, 8)}}
	}
	lt.tr.ID, lt.tr.Name, lt.tr.Root, lt.tr.StartNS, lt.tr.EndNS = id, name, spanID, start, 0
	return Ctx{
		t:       t,
		lt:      lt,
		gen:     lt.gen,
		traceID: id,
		spanID:  spanID,
		name:    name,
		start:   start,
		root:    true,
		attrs:   copyAttrs(attrs),
	}
}

// StartSpan opens a child span under ctx. Children may start and end from
// any goroutine; they must End before the root does or they are dropped.
func (c Ctx) StartSpan(name string, attrs ...Attr) Ctx {
	if c.t == nil {
		return Ctx{}
	}
	return c.StartSpanAt(name, c.t.clock(), attrs...)
}

// StartSpanAt opens a child span with a caller-supplied start timestamp
// (from Tracer.Now, possibly stamped on another goroutine): the entry
// point for materializing spans after the fact from breadcrumbs recorded
// on a hot path.
func (c Ctx) StartSpanAt(name string, startNS int64, attrs ...Attr) Ctx {
	if c.t == nil {
		return Ctx{}
	}
	return Ctx{
		t:       c.t,
		lt:      c.lt,
		gen:     c.gen,
		traceID: c.traceID,
		spanID:  c.t.nextID(),
		parent:  c.spanID,
		name:    name,
		start:   startNS,
		attrs:   copyAttrs(attrs),
	}
}

// SetAttr adds an annotation to the span. The returned Ctx carries the
// attribute; the receiver is unchanged when it escaped by value, so use the
// pattern ctx = ctx.SetAttr(...) or annotate at Start/End time.
func (c Ctx) SetAttr(attrs ...Attr) Ctx {
	if c.t == nil {
		return c
	}
	c.attrs = append(c.attrs, attrs...)
	return c
}

// Active reports whether the context belongs to a live tracer.
func (c Ctx) Active() bool { return c.t != nil }

// TraceID returns the span's trace identifier (0 when inert).
func (c Ctx) TraceID() uint64 { return c.traceID }

// StartNS returns the span's start timestamp on the tracer's clock (0 when
// inert). Instrumentation that needs the enqueue instant for later
// breadcrumbs reads it from here instead of paying a second clock read.
func (c Ctx) StartNS() int64 { return c.start }

// Keep marks the whole trace as force-kept: tail sampling will retain it
// regardless of rate or duration. Instrumented error paths (shed
// admissions, 429s, fallbacks) call this so every anomalous trace
// survives the sampler.
func (c Ctx) Keep() {
	if c.t == nil {
		return
	}
	lt := c.lt
	lt.mu.Lock()
	if lt.gen == c.gen {
		lt.keep = true
	}
	lt.mu.Unlock()
}

// Event records an already-completed child span [startNS, endNS] under ctx
// in a single call — the zero-allocation form hot paths use when the
// timestamps were stamped elsewhere (Tracer.Now breadcrumbs). The attrs
// are copied into the trace's arena under its lock, so the variadic slice
// never escapes to the heap.
func (c Ctx) Event(name string, startNS, endNS int64, attrs ...Attr) {
	if c.t == nil {
		return
	}
	id := c.t.nextID()
	lt := c.lt
	lt.mu.Lock()
	if lt.gen != c.gen {
		lt.mu.Unlock()
		c.t.droppedSpans.Add(1)
		return
	}
	a := lt.arenaAppend(nil, attrs)
	lt.tr.Spans = append(lt.tr.Spans, Span{
		SpanID:  id,
		Parent:  c.spanID,
		Name:    name,
		StartNS: startNS,
		EndNS:   endNS,
		Attrs:   a,
	})
	lt.mu.Unlock()
}

// arenaAppend copies head then tail into the trace's arena and returns the
// combined attribute slice (nil when both are empty). Caller holds lt.mu.
func (lt *liveTrace) arenaAppend(head, tail []Attr) []Attr {
	if len(head) == 0 && len(tail) == 0 {
		return nil
	}
	n0 := len(lt.arena)
	lt.arena = append(lt.arena, head...)
	lt.arena = append(lt.arena, tail...)
	return lt.arena[n0:len(lt.arena):len(lt.arena)]
}

// End finishes the span with optional final attributes. Ending a root span
// runs the tail-sampling decision and, when the trace is kept, commits it
// to the store (which copies it) before recycling the header — children
// still open at that point observe the bumped generation, are dropped,
// and counted in DroppedSpans. The return value reports whether the
// trace was (or will be, for non-root spans) retained: callers use it to
// avoid publishing exemplar trace IDs that point at sampled-out traces.
func (c Ctx) End(attrs ...Attr) bool {
	if c.t == nil {
		return false
	}
	return c.finish(c.t.clock(), attrs)
}

// EndAt finishes the span at a caller-supplied timestamp (from
// Tracer.Now), the counterpart of StartSpanAt.
func (c Ctx) EndAt(endNS int64, attrs ...Attr) bool {
	if c.t == nil {
		return false
	}
	return c.finish(endNS, attrs)
}

func (c Ctx) finish(end int64, attrs []Attr) bool {
	t, lt := c.t, c.lt
	lt.mu.Lock()
	if lt.gen != c.gen {
		lt.mu.Unlock()
		t.droppedSpans.Add(1)
		return false
	}
	if !c.root {
		lt.tr.Spans = append(lt.tr.Spans, Span{
			SpanID:  c.spanID,
			Parent:  c.parent,
			Name:    c.name,
			StartNS: c.start,
			EndNS:   end,
			Attrs:   lt.arenaAppend(c.attrs, attrs),
		})
		lt.mu.Unlock()
		return true
	}
	// Root: run the tail-sampling decision BEFORE materializing the root
	// span — a dropped trace (the bulk, at production rates) then skips the
	// arena copy and span append entirely; nothing ever reads them.
	lt.tr.EndNS = end
	kept := t.tailKeep(lt.tr.ID, end-lt.tr.StartNS, lt.keep)
	if kept {
		lt.tr.Spans = append(lt.tr.Spans, Span{
			SpanID:  c.spanID,
			Parent:  c.parent,
			Name:    c.name,
			StartNS: c.start,
			EndNS:   end,
			Attrs:   lt.arenaAppend(c.attrs, attrs),
		})
		t.store.add(lt.tr)
	}
	// Invalidate outstanding children and recycle the header; the store
	// deep-copied the spans and attrs, so both buffers are reusable.
	lt.gen++
	lt.tr.Spans = lt.tr.Spans[:0]
	lt.arena = lt.arena[:0]
	lt.keep = false
	lt.mu.Unlock()
	t.free.Put(lt)
	return kept
}

// SetCurrent installs ctx as the tracer's ambient trace context — the
// propagation channel for single-consumer serving loops whose inner layers
// (placement policies, the fallback chain) cannot thread a Ctx through
// their interfaces. Concurrent pipelines must pass Ctx explicitly instead.
func (t *Tracer) SetCurrent(ctx Ctx) {
	if t == nil {
		return
	}
	t.curMu.Lock()
	t.cur = ctx
	t.curMu.Unlock()
}

// ClearCurrent removes the ambient context.
func (t *Tracer) ClearCurrent() {
	if t == nil {
		return
	}
	t.curMu.Lock()
	t.cur = Ctx{}
	t.curMu.Unlock()
}

// Current returns the ambient context (inert when none is installed or the
// tracer is nil).
func (t *Tracer) Current() Ctx {
	if t == nil {
		return Ctx{}
	}
	t.curMu.Lock()
	c := t.cur
	t.curMu.Unlock()
	return c
}
