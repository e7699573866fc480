package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// tracedCluster is testCluster with the pipeline's tracer wired in, the
// production arrangement: fleet breadcrumbs stamp from the same clock the
// admission spans use, so place-batch children land inside the root.
func tracedCluster(t *testing.T, servers, shards, max int, tr *trace.Tracer) *fleet.Cluster {
	t.Helper()
	c, err := fleet.New(fleet.Config{
		NumServers:   servers,
		ShardCount:   shards,
		MaxPerServer: max,
		K:            2,
		Seed:         3,
		Scorer:       fleet.ScorerFunc(testScore),
		Tracer:       tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { checkedClose(t, c) })
	return c
}

// spanNames collects the distinct span names of a trace.
func spanNames(tr trace.Trace) map[string]int {
	names := map[string]int{}
	for _, sp := range tr.Spans {
		names[sp.Name]++
	}
	return names
}

// requireAdmissionShape asserts the full span tree of a placed admission:
// an "admission" root with queue-wait, coalesce, and place-batch
// children, and score/commit grandchildren under place-batch.
func requireAdmissionShape(t *testing.T, tr trace.Trace) {
	t.Helper()
	var root, placeBatch trace.Span
	for _, sp := range tr.Spans {
		switch {
		case sp.Parent == 0:
			root = sp
		case sp.Name == "place-batch":
			placeBatch = sp
		}
	}
	if root.SpanID == 0 || root.Name != "admission" {
		t.Fatalf("trace %016x: root span %+v, want name admission", tr.ID, root)
	}
	if placeBatch.SpanID == 0 {
		t.Fatalf("trace %016x has no place-batch span: %v", tr.ID, spanNames(tr))
	}
	// child name -> required parent span
	want := map[string]uint64{
		"queue-wait":  root.SpanID,
		"coalesce":    root.SpanID,
		"place-batch": root.SpanID,
		"score":       placeBatch.SpanID,
		"commit":      placeBatch.SpanID,
	}
	for name, parent := range want {
		found := false
		for _, sp := range tr.Spans {
			if sp.Name == name && sp.Parent == parent {
				found = true
				if sp.EndNS < sp.StartNS {
					t.Fatalf("span %s runs backward: start %d end %d", name, sp.StartNS, sp.EndNS)
				}
			}
		}
		if !found {
			t.Fatalf("trace %016x lacks %q under parent %016x: %v",
				tr.ID, name, parent, spanNames(tr))
		}
	}
}

// TestHTTPTracePropagation: an admit carrying X-Gaugur-Trace-Id must
// produce exactly one trace rooted at that client-minted identifier,
// with the full pipeline span tree attached.
func TestHTTPTracePropagation(t *testing.T) {
	tr := trace.New(trace.Config{Seed: 11})
	ts, _ := newHTTPFixture(t, PipelineConfig{Tracer: tr, Cluster: tracedCluster(t, 16, 4, 2, tr)})

	const wantID = uint64(0x00000000deadbeef)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/admit",
		strings.NewReader(`{"game": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "00000000deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced admit: status %d", resp.StatusCode)
	}

	got, ok := tr.Store().Get(wantID)
	if !ok {
		t.Fatalf("no trace rooted at client id %016x (store holds %d)", wantID, tr.Store().Len())
	}
	requireAdmissionShape(t, got)

	// A malformed header must not fail the request — the server just
	// mints its own identity.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/admit",
		strings.NewReader(`{"game": 4}`))
	req2.Header.Set(TraceHeader, "not-hex")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("malformed-header admit: status %d", resp2.StatusCode)
	}
	if tr.Store().Len() != 2 {
		t.Fatalf("store holds %d traces, want 2 (client-rooted + server-minted)", tr.Store().Len())
	}
}

// TestBinaryTracePropagation: op 3 is the binary counterpart of the
// HTTP header — same client-rooted trace, same span tree.
func TestBinaryTracePropagation(t *testing.T) {
	tr := trace.New(trace.Config{Seed: 12})
	c := tracedCluster(t, 16, 4, 2, tr)
	p, err := NewPipeline(PipelineConfig{Cluster: c, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartBinary("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.closeBinary(); p.Close() })

	cl, err := DialBinary(s.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const wantID = uint64(0xfeedface00000001)
	if _, _, err := cl.AdmitTraced(5, wantID); err != nil {
		t.Fatalf("traced binary admit: %v", err)
	}
	got, ok := tr.Store().Get(wantID)
	if !ok {
		t.Fatalf("no trace rooted at binary client id %016x", wantID)
	}
	requireAdmissionShape(t, got)
}

// TestLoadGenTraceIDsDeterministic: with Trace enabled, the load
// generator mints the n-th arrival's identifier from the simulation
// seed, so every admission trace the server retains is one the client
// can name in advance — the property replay debugging rests on.
func TestLoadGenTraceIDsDeterministic(t *testing.T) {
	tr := trace.New(trace.Config{Seed: 13, Capacity: 4096})
	ts, _ := newHTTPFixture(t, PipelineConfig{Tracer: tr, Cluster: tracedCluster(t, 16, 4, 2, tr)})

	const seed = int64(77)
	res, err := RunLoadGen(LoadGenConfig{
		Target:    ts.URL,
		Crowd:     sim.FlashCrowd{Base: 300},
		Horizon:   0.25,
		TimeScale: 1,
		Games:     []int{0, 1, 2, 3},
		Seed:      seed,
		Workers:   4,
		Trace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("load generator sent nothing")
	}

	expected := map[uint64]bool{}
	for n := int64(0); n < int64(res.Sent); n++ {
		expected[uint64(sim.DeriveSeed(seed, "loadgen-trace", n))] = true
	}
	admissions := 0
	for _, got := range tr.Store().Recent(0) {
		if got.Name != "admission" {
			continue
		}
		admissions++
		if !expected[got.ID] {
			t.Fatalf("trace %016x is not a loadgen-derived identifier", got.ID)
		}
	}
	if admissions == 0 {
		t.Fatal("no admission traces retained from a traced loadgen run")
	}
}

// TestFlashCrowdTailRetention drives a flash crowd into a tiny cluster
// at a 1% baseline sampling rate and checks the acceptance property:
// every rejected admission (queue-full or no-capacity) is force-kept and
// retrievable by its client-minted identifier, within the ring bound.
func TestFlashCrowdTailRetention(t *testing.T) {
	tr := trace.New(trace.Config{
		Seed:     14,
		Capacity: 4096,
		// Warmup larger than the run isolates the force-keep rule from
		// the slow-quantile rule.
		Tail: &trace.TailPolicy{Rate: 0.01, Warmup: 1 << 20},
	})
	c := tracedCluster(t, 4, 2, 2, tr) // 8 slots total
	p, err := NewPipeline(PipelineConfig{Cluster: c, Tracer: tr, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	const (
		workers = 8
		perW    = 64
	)
	var mu sync.Mutex
	failed := map[uint64]error{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := uint64(sim.DeriveSeed(99, "crowd", int64(w*perW+i))) | 1
				if _, err := p.AdmitTraced((w+i)%8, id); err != nil {
					mu.Lock()
					failed[id] = err
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	if len(failed) == 0 {
		t.Fatal("flash crowd produced no rejections; test is not exercising force-keep")
	}
	for id, admitErr := range failed {
		if !errors.Is(admitErr, ErrNoCapacity) && !errors.Is(admitErr, ErrQueueFull) {
			t.Fatalf("unexpected rejection %v", admitErr)
		}
		got, ok := tr.Store().Get(id)
		if !ok {
			t.Fatalf("rejected admission %016x (%v) was sampled out; force-keep must retain it", id, admitErr)
		}
		if got.ID != id {
			t.Fatalf("trace %016x stored under %016x", id, got.ID)
		}
	}
	if got, bound := tr.Store().Len(), tr.Store().Capacity(); got > bound {
		t.Fatalf("store holds %d traces beyond its %d-trace bound", got, bound)
	}
	st := tr.TailStats()
	if st.KeptForced < int64(len(failed)) {
		t.Fatalf("tail stats report %d forced keeps, want >= %d rejections", st.KeptForced, len(failed))
	}
	if st.Dropped == 0 {
		t.Fatal("1% sampling dropped nothing; the rate rule never engaged")
	}
}

// TestStatsAndTracesUnderLoad hammers /v1/stats and /debug/traces while
// admissions and leaves are in flight (run with -race): every response
// must be well-formed JSON, and the trace export must never surface a
// torn span — an end before its start, or a parent that resolves to no
// span in the same trace.
func TestStatsAndTracesUnderLoad(t *testing.T) {
	tr := trace.New(trace.Config{Seed: 15, Capacity: 512})
	p, err := NewPipeline(PipelineConfig{Cluster: tracedCluster(t, 16, 4, 4, tr), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	// Mount the trace export the way gaugur serve does: the list endpoint
	// and the per-trace detail endpoint share one handler.
	th := trace.TracerHandler(tr)
	s, err := NewServer(ServerConfig{
		Pipeline: p,
		Registry: obs.New(),
		Extra: []obs.Mount{
			{Pattern: "GET /debug/traces", Handler: th},
			{Pattern: "GET /debug/traces/", Handler: th},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := s.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(sim.DeriveSeed(5, "load", int64(w*1_000_000+i))) | 1
				pl, err := p.AdmitTraced(i%8, id)
				if err == nil && i%3 == 0 {
					p.LeaveTraced(pl.Session, id^1)
				}
			}
		}(w)
	}

	readBody := func(path string) []byte {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}
	for i := 0; i < 50; i++ {
		var stats map[string]any
		if err := json.Unmarshal(readBody("/v1/stats"), &stats); err != nil {
			t.Fatalf("stats decode: %v", err)
		}
		for _, key := range []string{"placed", "rejected", "active", "queueDepth"} {
			if _, ok := stats[key]; !ok {
				t.Fatalf("stats response lacks %q: %v", key, stats)
			}
		}
		// The list serves summaries (span COUNTS); full span trees come
		// from the per-trace detail endpoint. Check a handful of the
		// newest traces each sweep.
		var list struct {
			Retained int `json:"retained"`
			Traces   []struct {
				ID    string `json:"id"`
				Spans int    `json:"spans"`
			} `json:"traces"`
		}
		if err := json.Unmarshal(readBody("/debug/traces?n=4"), &list); err != nil {
			t.Fatalf("trace list decode: %v", err)
		}
		for _, sum := range list.Traces {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/"+sum.ID, nil))
			if rec.Code == http.StatusNotFound {
				continue // evicted between list and detail; legal under load
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("trace detail %s: status %d", sum.ID, rec.Code)
			}
			var export trace.Export
			if err := json.Unmarshal(rec.Body.Bytes(), &export); err != nil {
				t.Fatalf("trace export decode: %v", err)
			}
			for _, et := range export.Traces {
				ids := map[string]bool{"": true}
				for _, sp := range et.Spans {
					ids[sp.ID] = true
				}
				for _, sp := range et.Spans {
					if sp.DurationNS < 0 {
						t.Fatalf("torn span %s in trace %s: negative duration %d", sp.Name, et.ID, sp.DurationNS)
					}
					if !ids[sp.Parent] {
						t.Fatalf("span %s in trace %s has dangling parent %s", sp.Name, et.ID, sp.Parent)
					}
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestKeptAdmissionTraceWarmAllocs: with every trace kept, a warm admit
// and leave — spans recorded from stamps into the pooled op's root, the
// trace committed into a warm store slot, the latency exemplar published —
// allocate nothing.
func TestKeptAdmissionTraceWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector, so pooled paths allocate")
	}
	tr := trace.New(trace.Config{Seed: 5, Capacity: 8, Tail: &trace.TailPolicy{Rate: 1}})
	p, err := NewPipeline(PipelineConfig{
		Cluster: tracedCluster(t, 16, 4, 2, tr),
		Metrics: obs.New(),
		Tracer:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pair := func() {
		pl, err := p.Admit(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Leave(pl.Session); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm the op pool and every store slot
		pair()
	}
	before := tr.Store().Total()
	n := testing.AllocsPerRun(200, pair)
	if kept := tr.Store().Total() - before; kept < 2*200 {
		t.Fatalf("%d traces kept over 200 pairs, want every admit and leave", kept)
	}
	if n != 0 {
		t.Fatalf("a warm kept admit/leave pair allocates %v times, want 0", n)
	}
	t.Logf("allocations per warm kept admit/leave pair: %v", n)
}
