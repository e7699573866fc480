package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
)

// manualClock returns a Clock that advances by step on every read.
func manualClock(start, step int64) Clock {
	now := start
	return func() int64 {
		v := now
		now += step
		return v
	}
}

// buildFixture records a small deterministic trace set: n traces, each with
// two child spans (one annotated).
func buildFixture(seed int64, capacity, n int) *Tracer {
	t := New(Config{Seed: seed, Clock: manualClock(1000, 10), Capacity: capacity})
	var root Root
	for i := 0; i < n; i++ {
		t.StartRoot(&root, 0, "decision")
		root.Child(0, "score", t.Now(), t.Now(), Int("candidates", 3), Float("best", 58.5))
		root.Child(0, "predict", t.Now(), t.Now())
		root.End(Int("round", i), Bool("placed", true))
	}
	return t
}

func TestDeterministicExports(t *testing.T) {
	render := func() (string, string) {
		tr := buildFixture(42, 8, 3)
		var j, c bytes.Buffer
		if err := WriteJSON(&j, tr.Store().Recent(0)); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if err := WriteChromeTrace(&c, tr.Store().Recent(0)); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render()
	j2, c2 := render()
	if j1 != j2 {
		t.Errorf("structured JSON export differs across identical runs:\n%s\nvs\n%s", j1, j2)
	}
	if c1 != c2 {
		t.Errorf("Chrome export differs across identical runs:\n%s\nvs\n%s", c1, c2)
	}
	// A different seed must yield different identifiers.
	other := buildFixture(43, 8, 1)
	same := buildFixture(42, 8, 1)
	if other.Store().Recent(1)[0].ID == same.Store().Recent(1)[0].ID {
		t.Error("different seeds produced the same trace ID")
	}
}

func TestSpanTreeShape(t *testing.T) {
	tr := buildFixture(7, 4, 1)
	traces := tr.Store().Recent(0)
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	got := traces[0]
	if len(got.Spans) != 3 {
		t.Fatalf("trace has %d spans, want 3 (2 children + root)", len(got.Spans))
	}
	// Children in record order, root last.
	rootSpan := got.Spans[2]
	if rootSpan.SpanID != got.Root {
		t.Errorf("last span %x is not the root %x", rootSpan.SpanID, got.Root)
	}
	if rootSpan.Parent != 0 {
		t.Errorf("root span has parent %x, want 0", rootSpan.Parent)
	}
	for _, sp := range got.Spans[:2] {
		if sp.Parent != got.Root {
			t.Errorf("child %q parent = %x, want root %x", sp.Name, sp.Parent, got.Root)
		}
	}
	// Manual clock: root opened at 1000, spans strictly ordered.
	if got.StartNS != 1000 {
		t.Errorf("trace start = %d, want 1000", got.StartNS)
	}
	if got.EndNS <= got.StartNS {
		t.Errorf("trace end %d not after start %d", got.EndNS, got.StartNS)
	}
	if n := len(rootSpan.Attrs); n != 2 {
		t.Errorf("root span has %d attrs, want 2", n)
	}
	if rootSpan.Attrs[1] != Bool("placed", true) {
		t.Errorf("root end attr = %+v", rootSpan.Attrs[1])
	}
}

func TestRingEviction(t *testing.T) {
	const capacity, committed = 4, 11
	tr := buildFixture(9, capacity, committed)
	s := tr.Store()
	if s.Len() != capacity {
		t.Errorf("Len = %d, want %d", s.Len(), capacity)
	}
	if s.Total() != committed {
		t.Errorf("Total = %d, want %d", s.Total(), committed)
	}
	if s.Evicted() != committed-capacity {
		t.Errorf("Evicted = %d, want %d", s.Evicted(), committed-capacity)
	}
	if s.Capacity() != capacity {
		t.Errorf("Capacity = %d, want %d", s.Capacity(), capacity)
	}
	recent := s.Recent(0)
	if len(recent) != capacity {
		t.Fatalf("Recent(0) returned %d traces, want %d", len(recent), capacity)
	}
	// Newest first: rounds committed-1 .. committed-capacity.
	for i, got := range recent {
		wantRound := fmt.Sprint(committed - 1 - i)
		rootAttrs := got.Spans[len(got.Spans)-1].Attrs
		if rootAttrs[0].Value() != wantRound {
			t.Errorf("Recent[%d] round = %s, want %s", i, rootAttrs[0].Value(), wantRound)
		}
	}
	// Evicted traces are gone; retained ones resolvable by ID.
	if _, ok := s.Get(recent[0].ID); !ok {
		t.Error("Get lost the newest retained trace")
	}
	if s.Recent(2)[0].ID != recent[0].ID {
		t.Error("Recent(2) does not start at the newest trace")
	}
}

func TestChromeExportRoundTrip(t *testing.T) {
	tr := buildFixture(5, 4, 2)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Store().Recent(0)); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var decoded ChromeExport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	// 2 traces × (1 metadata + 3 spans).
	if len(decoded.TraceEvents) != 8 {
		t.Fatalf("decoded %d events, want 8", len(decoded.TraceEvents))
	}
	var meta, complete int
	for _, ev := range decoded.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" {
				t.Errorf("metadata event name = %q", ev.Name)
			}
		case "X":
			complete++
			if ev.Args["trace_id"] == "" || ev.Args["span_id"] == "" {
				t.Errorf("span event %q missing id args: %v", ev.Name, ev.Args)
			}
			if ev.Dur < 0 {
				t.Errorf("span event %q has negative duration", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 6 {
		t.Errorf("meta=%d complete=%d, want 2 and 6", meta, complete)
	}
	// Span attrs survive as args.
	found := false
	for _, ev := range decoded.TraceEvents {
		if ev.Name == "score" && ev.Args["candidates"] == "3" && ev.Args["best"] == "58.5" {
			found = true
		}
	}
	if !found {
		t.Error("score span attrs did not survive the Chrome round-trip")
	}
}

func TestFormatParseID(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Errorf("FormatID(%d) = %q, want 16 chars", id, s)
		}
		back, err := ParseID(s)
		if err != nil || back != id {
			t.Errorf("ParseID(FormatID(%d)) = %d, %v", id, back, err)
		}
	}
	if _, err := ParseID("not-hex"); err == nil {
		t.Error("ParseID accepted garbage")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	var root Root
	tr.StartRoot(&root, 7, "x")
	if root.Active() || root.TraceID() != 0 || root.StartNS() != 0 {
		t.Error("nil tracer produced a live root")
	}
	root.Keep()
	if id := root.Child(0, "y", 1, 2, String("a", "b")); id != 0 {
		t.Errorf("inert root recorded child %x", id)
	}
	if root.End() || root.EndAt(10) {
		t.Error("inert root reported kept")
	}
	if tr.Store() != nil {
		t.Error("nil tracer Store != nil")
	}
	if tr.Now() != 0 {
		t.Error("nil tracer Now != 0")
	}
	var s *Store
	if s.Len() != 0 || s.Total() != 0 || s.Evicted() != 0 || s.Capacity() != 0 {
		t.Error("nil store counters non-zero")
	}
	if s.Recent(5) != nil {
		t.Error("nil store Recent != nil")
	}
	if _, ok := s.Get(1); ok {
		t.Error("nil store Get found a trace")
	}
	// The zero Root is inert too.
	var zero Root
	zero.Child(0, "z", 0, 0)
	if zero.End() || zero.TraceID() != 0 {
		t.Error("zero Root is live")
	}
}

func TestHTTPHandler(t *testing.T) {
	tr := buildFixture(11, 8, 3)
	h := Handler(tr.Store())

	// List.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("list status = %d", rec.Code)
	}
	var list struct {
		Retained int       `json:"retained"`
		Total    int64     `json:"total"`
		Traces   []Summary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if list.Retained != 3 || list.Total != 3 || len(list.Traces) != 3 {
		t.Fatalf("list = %+v", list)
	}

	// ?n= limit.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=1", nil))
	var limited struct {
		Traces []Summary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &limited); err != nil {
		t.Fatalf("limited decode: %v", err)
	}
	if len(limited.Traces) != 1 || limited.Traces[0].ID != list.Traces[0].ID {
		t.Errorf("?n=1 returned %+v, want just the newest", limited.Traces)
	}

	// Detail.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+list.Traces[1].ID, nil))
	if rec.Code != 200 {
		t.Fatalf("detail status = %d", rec.Code)
	}
	var detail Export
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatalf("detail decode: %v", err)
	}
	if len(detail.Traces) != 1 || detail.Traces[0].ID != list.Traces[1].ID {
		t.Fatalf("detail = %+v", detail)
	}
	if len(detail.Traces[0].Spans) != 3 {
		t.Errorf("detail spans = %d, want 3", len(detail.Traces[0].Spans))
	}

	// Chrome formats.
	for _, path := range []string{"/debug/traces?format=chrome", "/debug/traces/" + list.Traces[0].ID + "?format=chrome"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var chrome ChromeExport
		if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
			t.Fatalf("%s decode: %v", path, err)
		}
		if len(chrome.TraceEvents) == 0 {
			t.Errorf("%s returned no events", path)
		}
	}

	// Errors.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/zzz", nil))
	if rec.Code != 400 {
		t.Errorf("bad-id status = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/0000000000000000", nil))
	if rec.Code != 404 {
		t.Errorf("missing-id status = %d, want 404", rec.Code)
	}

	// Nil store serves an empty listing, not a panic.
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Errorf("nil-store list status = %d", rec.Code)
	}
}
