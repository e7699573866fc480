package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestStartTraceWithIDAdoptsClientID: a trace started with a
// client-minted identifier keeps it and is retrievable by it; an id of 0
// falls back to the tracer's own deterministic sequence.
func TestStartTraceWithIDAdoptsClientID(t *testing.T) {
	tr := New(Config{Seed: 7, Clock: manualClock(0, 10)})
	const minted = uint64(0xdeadbeefcafe0001)
	var root Root
	tr.StartRoot(&root, minted, "admission")
	if got := root.TraceID(); got != minted {
		t.Fatalf("TraceID = %x, want the client-minted %x", got, minted)
	}
	if !root.End(Int("game", 3)) {
		t.Fatal("End reported the trace dropped with no sampling configured")
	}
	if _, ok := tr.Store().Get(minted); !ok {
		t.Fatalf("trace %x not retrievable by its client-minted ID", minted)
	}
	tr.StartRoot(&root, 0, "admission")
	if root.TraceID() == 0 {
		t.Fatal("StartRoot(0) minted a zero trace ID")
	}
	root.End()
}

// TestPreTimedSpans: children recorded from stamps keep their stamps,
// parent ids and attributes, at any depth.
func TestPreTimedSpans(t *testing.T) {
	tr := New(Config{Seed: 7, Clock: manualClock(1000, 0)})
	var root Root
	tr.StartRoot(&root, 0, "admission")
	root.Child(0, "queue-wait", 100, 250, Int("depth", 4))
	pb := root.Child(0, "place-batch", 250, 400, Int("arrivals", 16))
	root.Child(pb, "commit", 300, 320, Int("shard", 2))
	root.End()

	got, ok := tr.Store().Get(root.TraceID())
	if !ok {
		t.Fatal("trace not committed")
	}
	byName := map[string]Span{}
	for _, sp := range got.Spans {
		byName[sp.Name] = sp
	}
	qw := byName["queue-wait"]
	if qw.StartNS != 100 || qw.EndNS != 250 {
		t.Errorf("queue-wait = [%d,%d], want [100,250]", qw.StartNS, qw.EndNS)
	}
	if qw.Parent != got.Root {
		t.Errorf("queue-wait parent = %x, want root %x", qw.Parent, got.Root)
	}
	pbs := byName["place-batch"]
	if pbs.StartNS != 250 || pbs.EndNS != 400 || pbs.SpanID != pb {
		t.Errorf("place-batch = %x [%d,%d], want %x [250,400]", pbs.SpanID, pbs.StartNS, pbs.EndNS, pb)
	}
	cm := byName["commit"]
	if cm.Parent != pb {
		t.Errorf("commit parent = %x, want place-batch %x", cm.Parent, pb)
	}
	if len(qw.Attrs) != 1 || qw.Attrs[0].Key != "depth" || qw.Attrs[0].Value() != "4" {
		t.Errorf("queue-wait attrs = %v", qw.Attrs)
	}
}

// TestAttrsSurviveHeaderRecycling guards the arena design: attributes of a
// committed trace must stay intact after the Root reuses its span buffer
// and attribute arena for later traces that overwrite the same memory.
func TestAttrsSurviveHeaderRecycling(t *testing.T) {
	tr := New(Config{Seed: 7, Clock: manualClock(0, 1), Capacity: 64})
	var root Root
	tr.StartRoot(&root, 0, "decision")
	first := root.TraceID()
	root.Child(0, "step", 1, 2, String("tag", "alpha"), Int("n", 11))
	root.End(String("who", "first"))
	got, _ := tr.Store().Get(first)
	for i := 0; i < 50; i++ {
		tr.StartRoot(&root, 0, "decision")
		root.Child(0, "step", 1, 2, String("tag", "beta"), Int("n", 99))
		root.End(String("who", "later"))
	}
	for _, sp := range got.Spans {
		for _, a := range sp.Attrs {
			if v := a.Value(); v == "beta" || v == "99" || v == "later" {
				t.Fatalf("detached trace attr %q=%q was overwritten by a reused arena", a.Key, v)
			}
		}
	}
}

func TestTailRateIsDeterministicPerTraceID(t *testing.T) {
	run := func() map[uint64]bool {
		tr := New(Config{Seed: 9, Clock: manualClock(0, 1), Capacity: 4096,
			Tail: &TailPolicy{Rate: 0.25, Warmup: 1 << 30}})
		kept := map[uint64]bool{}
		for i := uint64(1); i <= 2000; i++ {
			var c Root
			tr.StartRoot(&c, i, "admission")
			kept[i] = c.End()
		}
		return kept
	}
	a, b := run(), run()
	nKept := 0
	for id, k := range a {
		if b[id] != k {
			t.Fatalf("trace %x keep decision differs across identical runs", id)
		}
		if k {
			nKept++
		}
	}
	// 25% of 2000 with a good hash: allow a generous band.
	if nKept < 300 || nKept > 700 {
		t.Errorf("kept %d of 2000 at rate 0.25 — hash badly skewed", nKept)
	}
}

func TestTailForcedKeepAndLedger(t *testing.T) {
	tr := New(Config{Seed: 3, Clock: manualClock(0, 1), Capacity: 1024,
		Tail: &TailPolicy{Rate: 0, Warmup: 1 << 30}})
	var keptIDs []uint64
	for i := 0; i < 200; i++ {
		var c Root
		tr.StartRoot(&c, 0, "admission")
		if i%10 == 0 {
			c.Keep() // the 429/error path
			if !c.End(String("outcome", "rejected")) {
				t.Fatal("force-kept trace was dropped")
			}
			keptIDs = append(keptIDs, c.TraceID())
			continue
		}
		if c.End() {
			t.Fatal("rate-0 unforced trace was kept")
		}
	}
	for _, id := range keptIDs {
		if _, ok := tr.Store().Get(id); !ok {
			t.Fatalf("force-kept trace %x missing from store", id)
		}
	}
	st := tr.TailStats()
	if st.KeptForced != 20 || st.KeptRate != 0 || st.Dropped != 180 {
		t.Errorf("ledger = %+v, want 20 forced / 180 dropped", st)
	}
	if got := tr.Store().Total(); got != 20 {
		t.Errorf("store committed %d traces, want only the 20 kept", got)
	}
	if tr.Store().Len() != 20 {
		t.Errorf("store retains %d, want 20", tr.Store().Len())
	}
}

func TestTailSlowQuantileKeepsSlowTraces(t *testing.T) {
	clock := manualClock(0, 0)
	tr := New(Config{Seed: 5, Clock: clock, Capacity: 4096,
		Tail: &TailPolicy{Rate: 0, SlowQuantile: 0.9, Warmup: 64}})
	// Manual clock with step 0: span duration is whatever we stamp.
	mk := func(id uint64, durNS int64) bool {
		var c Root
		tr.StartRoot(&c, id, "admission")
		return c.EndAt(durNS)
	}
	// Warm up the distribution: lots of ~1µs traces, a few ~1ms ones.
	for i := uint64(1); i <= 1000; i++ {
		dur := int64(1000)
		if i%50 == 0 {
			dur = 1_000_000
		}
		mk(i, dur)
	}
	st := tr.TailStats()
	if st.SlowThresholdNS <= 0 {
		t.Fatalf("slow threshold never armed: %+v", st)
	}
	if st.SlowThresholdNS > 1_000_000 {
		t.Fatalf("slow threshold %dns above the slow population", st.SlowThresholdNS)
	}
	// Every p99-slow-decile trace from here on must be retained.
	for i := uint64(2000); i < 2100; i++ {
		if !mk(i, 2_000_000) {
			t.Fatalf("slow trace %x dropped despite armed threshold", i)
		}
		if _, ok := tr.Store().Get(i); !ok {
			t.Fatalf("slow trace %x missing from store", i)
		}
	}
	// Fast traces still drop at rate 0.
	if mk(5000, 100) {
		t.Error("fast trace kept at rate 0")
	}
}

func TestTracerHandlerReportsTailLedger(t *testing.T) {
	tr := New(Config{Seed: 11, Clock: manualClock(0, 1),
		Tail: &TailPolicy{Rate: 0, Warmup: 1 << 30}})
	for i := 0; i < 10; i++ {
		var c Root
		tr.StartRoot(&c, 0, "admission")
		if i == 0 {
			c.Keep()
		}
		c.End()
	}
	rec := httptest.NewRecorder()
	TracerHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var resp struct {
		Retained int        `json:"retained"`
		Tail     *TailStats `json:"tail"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad listing JSON: %v\n%s", err, rec.Body.String())
	}
	if resp.Tail == nil {
		t.Fatalf("listing missing tail ledger: %s", rec.Body.String())
	}
	if resp.Tail.KeptForced != 1 || resp.Tail.Dropped != 9 {
		t.Errorf("tail ledger = %+v, want 1 forced / 9 dropped", resp.Tail)
	}
	if resp.Retained != 1 {
		t.Errorf("retained = %d, want 1", resp.Retained)
	}
	// Handler without a tracer keeps the historic shape: no tail field.
	rec2 := httptest.NewRecorder()
	Handler(tr.Store()).ServeHTTP(rec2, httptest.NewRequest("GET", "/debug/traces", nil))
	if strings.Contains(rec2.Body.String(), `"tail"`) {
		t.Error("store-only Handler grew a tail field")
	}
}

// TestEndReturnsKeptForChildSpans: End reports whether the trace, child
// spans included, was retained, and a root that has ended records nothing
// more.
func TestEndReturnsKeptForChildSpans(t *testing.T) {
	tr := New(Config{Seed: 1, Clock: manualClock(0, 1)})
	var root Root
	tr.StartRoot(&root, 0, "r")
	if root.Child(0, "c", 0, 1) == 0 {
		t.Error("live root drew no span id for its child")
	}
	if !root.End() {
		t.Error("kept trace End returned false")
	}
	if root.Child(0, "late", 1, 2) != 0 || root.End() {
		t.Error("an ended root recorded more")
	}
	if got := tr.Store().Recent(1)[0].Spans; len(got) != 2 {
		t.Errorf("committed trace has %d spans, want child + root", len(got))
	}
}
