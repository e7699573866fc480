// Package flight is the always-on flight recorder for the serving plane: a
// bounded ring of recent structured events (admissions, rejections, drains,
// server failures, generation swaps) that costs almost nothing while the
// system is healthy and answers "what just happened" the moment it is not.
// A dump pairs the event ring with the last-N tail-kept traces from the
// span tracer, so one artifact carries both the event timeline and the
// span detail behind it.
//
// Same house rules as internal/obs and internal/obs/trace: standard
// library only, every method nil-safe, timestamps through an injectable
// clock so tests are deterministic, and recording never feeds back into
// the decisions it records.
package flight

import (
	"sync"
	"sync/atomic"

	"gaugur/internal/obs"
)

// Clock is obs.Clock, the one clock type tracer and registry read too:
// pass the tracer's clock so event and span timestamps line up in a dump.
type Clock = obs.Clock

// Event is one structured flight-recorder entry. Zero-valued fields are
// omitted from dumps, so each kind only renders what it sets.
type Event struct {
	// NS is the recorder-clock timestamp; Record stamps it when zero.
	NS int64 `json:"ns"`
	// Kind names the event: "admit", "reject-queue", "reject-capacity",
	// "reject-draining", "leave", "leave-unknown", "drain-begin",
	// "drain-end", "escape", "server-fail", "server-restore", "gen-swap".
	Kind    string `json:"kind"`
	Game    int    `json:"game,omitempty"`
	Session int    `json:"session,omitempty"`
	Server  int    `json:"server,omitempty"`
	Shard   int    `json:"shard,omitempty"`
	// Trace links the event to its admission trace when one exists,
	// rendered as the tracer's 16-hex-digit ID in dumps.
	Trace TraceID `json:"trace,omitempty"`
	// Detail carries kind-specific free text (counts, error names).
	Detail string `json:"detail,omitempty"`
}

// DefaultCapacity is the default event-ring size.
const DefaultCapacity = 1024

// Recorder is the bounded event ring. All methods are safe for concurrent
// use and nil-safe: a nil *Recorder records nothing.
type Recorder struct {
	clock Clock

	mu    sync.Mutex
	buf   []Event
	head  int // next write position
	size  int
	total int64

	dropped atomic.Int64
}

// New builds a recorder holding the most recent capacity events (<= 0
// defaults to DefaultCapacity); nil clock selects the real monotonic
// clock.
func New(capacity int, clock Clock) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if clock == nil {
		clock = obs.New().Now // the real monotonic clock, anchored now
	}
	return &Recorder{clock: clock, buf: make([]Event, capacity)}
}

// Record appends one event, stamping ev.NS from the recorder clock when
// zero. It takes the ring lock unconditionally — the hold time is a
// couple of stores, so blocking is bounded; hot loops that must never
// block use TryRecord instead.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.NS == 0 {
		ev.NS = r.clock()
	}
	r.mu.Lock()
	r.put(ev)
	r.mu.Unlock()
}

// TryRecord appends one event unless the ring lock is contended, in which
// case the event is counted as dropped instead of blocking the caller —
// the form for single-threaded hot loops (the fleet collector) where a
// stall costs every queued arrival. Returns whether the event landed.
func (r *Recorder) TryRecord(ev Event) bool {
	if r == nil {
		return true
	}
	if ev.NS == 0 {
		ev.NS = r.clock()
	}
	if !r.mu.TryLock() {
		r.dropped.Add(1)
		return false
	}
	r.put(ev)
	r.mu.Unlock()
	return true
}

// put appends under r.mu.
func (r *Recorder) put(ev Event) {
	r.buf[r.head] = ev
	r.head = (r.head + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
	r.total++
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.size)
	for i := 0; i < r.size; i++ {
		out = append(out, r.buf[(r.head-r.size+i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Total returns how many events were ever recorded (evicted included).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many TryRecord events were shed under contention.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Capacity returns the ring size (0 on nil).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Now reads the recorder clock (0 on nil) — for callers that want to
// stamp an event NS themselves.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock()
}
