package flight

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gaugur/internal/obs/trace"
)

func stepClock(start, step int64) Clock {
	now := start
	return func() int64 {
		v := now
		now += step
		return v
	}
}

func TestRingEvictionOldestFirst(t *testing.T) {
	r := New(4, stepClock(100, 10))
	for i := 0; i < 6; i++ {
		r.Record(Event{Kind: "admit", Session: i})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := i + 2; ev.Session != want {
			t.Errorf("event %d session = %d, want %d (oldest-first after eviction)", i, ev.Session, want)
		}
	}
	if evs[0].NS >= evs[3].NS {
		t.Errorf("events not in time order: %+v", evs)
	}
	if r.Total() != 6 || r.Dropped() != 0 {
		t.Errorf("total=%d dropped=%d, want 6/0", r.Total(), r.Dropped())
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: "admit"})
	if !r.TryRecord(Event{Kind: "admit"}) {
		t.Error("nil TryRecord reported a drop")
	}
	if r.Events() != nil || r.Total() != 0 || r.Capacity() != 0 || r.Now() != 0 {
		t.Error("nil recorder leaked state")
	}
	d := Snapshot(r, nil, 0)
	if len(d.Events) != 0 || d.Dropped != 0 {
		t.Errorf("nil snapshot = %+v", d)
	}
}

func TestDumpRoundTripWithTraces(t *testing.T) {
	clk := stepClock(0, 5)
	tr := trace.New(trace.Config{Seed: 3, Clock: trace.Clock(clk),
		Tail: &trace.TailPolicy{Rate: 0, Warmup: 1 << 30}})
	r := New(16, clk)
	r.Record(Event{Kind: "admit", Game: 2, Session: 7, Server: 31, Shard: 1, Trace: TraceID(0xfeed)})
	var c trace.Root
	tr.StartRoot(&c, 0xfeed, "admission")
	c.Keep()
	c.End()
	tr.StartRoot(&c, 0xbad, "admission")
	c.End()
	r.Record(Event{Kind: "drain-begin"})

	var buf bytes.Buffer
	if err := WriteDump(&buf, Snapshot(r, tr, 8)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"trace": "000000000000feed"`) {
		t.Errorf("dump did not hex-render the trace ID:\n%s", buf.String())
	}
	got, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if len(got.Events) != 2 || got.Events[0].Kind != "admit" || got.Events[0].Trace != 0xfeed {
		t.Errorf("round-tripped events = %+v", got.Events)
	}
	if len(got.Traces) != 1 || got.Traces[0].ID != "000000000000feed" {
		t.Errorf("dump traces = %+v, want only the kept trace", got.Traces)
	}
	if got.Tail == nil || got.Tail.KeptForced != 1 || got.Tail.Dropped != 1 {
		t.Errorf("dump tail ledger = %+v", got.Tail)
	}
}

func TestHandlerServesDump(t *testing.T) {
	r := New(8, stepClock(0, 1))
	r.Record(Event{Kind: "server-fail", Shard: 3, Server: 44})
	rec := httptest.NewRecorder()
	Handler(r, nil, 4).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("bad dump JSON: %v\n%s", err, rec.Body.String())
	}
	if len(d.Events) != 1 || d.Events[0].Kind != "server-fail" {
		t.Errorf("served dump = %+v", d)
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := New(256, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if w%2 == 0 {
					r.Record(Event{Kind: "admit", Session: i})
				} else {
					r.TryRecord(Event{Kind: "gen-swap"})
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			Snapshot(r, nil, 4)
		}
	}()
	wg.Wait()
	<-done
	if got := r.Total() + r.Dropped(); got != 8000 {
		t.Fatalf("total+dropped = %d, want 8000 (no event lost untracked)", got)
	}
}
