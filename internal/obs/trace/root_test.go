package trace

import (
	"testing"
)

// TestRootDroppedRecordsNothing: a root whose tail decision is "drop" must
// leave no trace in the store and still feed the sampler's ledger.
func TestRootDroppedRecordsNothing(t *testing.T) {
	tr := New(Config{
		Seed:  7,
		Clock: manualClock(0, 10),
		Tail:  &TailPolicy{Rate: 0}, // drop everything not forced
	})
	var r Root
	tr.StartRoot(&r, 0, "admission")
	if !r.Active() {
		t.Fatal("root inactive on a live tracer")
	}
	if r.TraceID() == 0 {
		t.Fatal("StartRoot(0) minted a zero trace ID")
	}
	r.Child(0, "queue-wait", 0, 5)
	if r.End() {
		t.Fatal("End kept a trace under Rate: 0 with no force")
	}
	if r.Active() {
		t.Fatal("root still live after End")
	}
	if got := tr.Store().Total(); got != 0 {
		t.Fatalf("store holds %d traces after a dropped root, want 0", got)
	}
	st := tr.TailStats()
	if st.Dropped != 1 {
		t.Fatalf("ledger dropped = %d, want 1", st.Dropped)
	}
}

// TestRootForceKeptUnattached: a root that is force-kept (error path)
// but has no children still commits a one-span trace so the store never
// misses a keep.
func TestRootForceKeptUnattached(t *testing.T) {
	tr := New(Config{
		Seed:  7,
		Clock: manualClock(100, 0),
		Tail:  &TailPolicy{Rate: 0},
	})
	const minted = uint64(0xabcdef0012345678)
	var r Root
	tr.StartRoot(&r, minted, "admission")
	r.Keep()
	if !r.EndAt(250, String("outcome", "queue-full")) {
		t.Fatal("force-kept root reported dropped")
	}
	got, ok := tr.Store().Get(minted)
	if !ok {
		t.Fatalf("trace %x not retrievable after forced keep", minted)
	}
	if len(got.Spans) != 1 {
		t.Fatalf("minimal commit has %d spans, want 1", len(got.Spans))
	}
	sp := got.Spans[0]
	if sp.SpanID != got.Root || sp.StartNS != 100 || sp.EndNS != 250 {
		t.Fatalf("root span = id %x [%d,%d], want root %x [100,250]",
			sp.SpanID, sp.StartNS, sp.EndNS, got.Root)
	}
	if len(sp.Attrs) != 1 || sp.Attrs[0].Key != "outcome" || sp.Attrs[0].Value() != "queue-full" {
		t.Fatalf("root attrs = %v", sp.Attrs)
	}
}

// TestRootNilTracer: every Root method is inert on a nil tracer, and
// StartRoot on a nil tracer clears a root a live tracer used before.
func TestRootNilTracer(t *testing.T) {
	var r Root
	New(Config{Seed: 1}).StartRoot(&r, 42, "admission")
	r.Keep()
	var tr *Tracer
	tr.StartRoot(&r, 42, "admission")
	if r.Active() || r.TraceID() != 0 || r.StartNS() != 0 {
		t.Fatal("nil-tracer root is not inert")
	}
	r.Keep()
	if r.Child(0, "x", 1, 2) != 0 {
		t.Fatal("Child on a nil-tracer root drew a span id")
	}
	if r.End() || r.EndAt(10) {
		t.Fatal("nil-tracer root reported kept")
	}
}
