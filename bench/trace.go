package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gaugur/internal/sched/fleet"
)

// The benchmark's own span recorder. Spans are taken around the calls
// into each layer, from this package; spans inside the program are a
// later change. They stay in memory until the pass ends.

type spanName uint8

const (
	spanRequest spanName = iota // due -> reply; root, one trace per request
	spanCall                    // send -> reply; child of request
	spanScore                   // one BatchScorer.ScoreStates call; no parent
	spanAdmit                   // request kinds, stored in span.N of the root
	spanLeave
)

var spanNames = [...]string{"request", "client.call", "core.ScoreStates"}

// span is one timed interval. Start and End are nanoseconds since the
// pass began. A coalesced batch serves many requests, so a scoring span
// has no parent (Parent 0, Trace 0).
type span struct {
	Trace  uint64 // worker<<32 | request number; shared by a request's spans
	ID     uint32
	Parent uint32
	Name   spanName
	N      int32 // request: spanAdmit or spanLeave; scoring: states scored
	Start  int64
	End    int64
}

// trace records a request's root span and its client.call child.
func (w *worker) trace(kind spanName, due, sent, done time.Time) {
	w.reqs++
	id := uint64(w.id+1)<<32 | uint64(w.reqs)
	t0 := w.r.epoch
	w.spans = append(w.spans,
		span{Trace: id, ID: 1, Name: spanRequest, N: int32(kind), Start: int64(due.Sub(t0)), End: int64(done.Sub(t0))},
		span{Trace: id, ID: 2, Parent: 1, Name: spanCall, Start: int64(sent.Sub(t0)), End: int64(done.Sub(t0))})
}

// timedScorer is the decorator that makes core measurable from outside:
// it times every ScoreStates call the fleet makes, optionally records a
// span per call, and optionally keeps a copy of each batch of states so
// the ladder's core rung can replay exactly what the fleet asked for.
type timedScorer struct {
	inner   fleet.BatchScorer
	t0      time.Time
	spans   bool
	capture bool

	busyNS, calls, states atomic.Int64

	mu       sync.Mutex
	recorded []span
	batches  [][][]int
}

func (t *timedScorer) ScoreStates(states [][]int, dst []float64) []float64 {
	start := time.Now()
	dst = t.inner.ScoreStates(states, dst)
	end := time.Now()
	t.busyNS.Add(int64(end.Sub(start)))
	t.calls.Add(1)
	t.states.Add(int64(len(states)))
	if !t.spans && !t.capture {
		return dst
	}
	t.mu.Lock()
	if t.spans {
		t.recorded = append(t.recorded, span{Name: spanScore, N: int32(len(states)),
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	}
	if t.capture {
		// The fleet reuses its state buffers, so keep a deep copy.
		batch := make([][]int, len(states))
		for i, s := range states {
			batch[i] = append([]int(nil), s...)
		}
		t.batches = append(t.batches, batch)
	}
	t.mu.Unlock()
	return dst
}

// selfTimes returns, per span in spans, its duration minus the part of
// that interval its direct children cover (overlapping children are not
// counted twice). Spans are matched to parents within one trace.
func selfTimes(spans []span) []int64 {
	type key struct {
		trace uint64
		id    uint32
	}
	kids := map[key][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Trace, s.Parent}
			kids[k] = append(kids[k], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		cs := kids[key{s.Trace, s.ID}]
		if len(cs) == 0 {
			continue
		}
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, upTo := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, upTo), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanSummary is the per-name total of one traced pass.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

// traceFileSpans caps what a trace file holds. Every span of the pass is
// recorded in memory (that is the overhead trace.overhead_pct reports);
// the file and its summary cover each worker's first share of the cap.
const traceFileSpans = 50000

// writeTrace writes the head of the pass's spans to path with a per-name
// summary of total and self time.
func (r *run) writeTrace(path string) error {
	var all []span
	recorded := len(r.scorer.recorded)
	per := traceFileSpans / (len(r.workers) + 1)
	for _, w := range r.workers {
		recorded += len(w.spans)
		all = append(all, w.spans[:min(len(w.spans), per)]...)
	}
	all = append(all, r.scorer.recorded[:min(len(r.scorer.recorded), per)]...)
	sum := map[string]spanSummary{}
	for i, self := range selfTimes(all) {
		s := all[i]
		e := sum[spanNames[s.Name]]
		e.Count++
		e.TotalUS += float64(s.End-s.Start) / 1e3
		e.SelfUS += float64(self) / 1e3
		sum[spanNames[s.Name]] = e
	}
	type outSpan struct {
		Trace   uint64 `json:"trace,omitempty"`
		ID      uint32 `json:"id,omitempty"`
		Parent  uint32 `json:"parent,omitempty"`
		Name    string `json:"name"`
		Kind    string `json:"kind,omitempty"`
		States  int32  `json:"states,omitempty"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Start < all[b].Start })
	out := struct {
		Workload string                 `json:"workload"`
		Spans    int                    `json:"spans_recorded"`
		Summary  map[string]spanSummary `json:"summary"`
		First    []outSpan              `json:"spans"`
	}{Workload: r.wl.name, Spans: recorded, Summary: sum}
	for _, s := range all {
		o := outSpan{Trace: s.Trace, ID: s.ID, Parent: s.Parent, Name: spanNames[s.Name], StartNS: s.Start, EndNS: s.End}
		switch {
		case s.Name == spanScore:
			o.States = s.N
		case s.Name == spanRequest && spanName(s.N) == spanLeave:
			o.Kind = "leave"
		case s.Name == spanRequest:
			o.Kind = "admit"
		}
		out.First = append(out.First, o)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
