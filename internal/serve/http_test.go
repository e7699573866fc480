package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gaugur/internal/obs"
	"gaugur/internal/sched/fleet"
)

func newHTTPFixture(t *testing.T, pcfg PipelineConfig) (*httptest.Server, *Pipeline) {
	t.Helper()
	if pcfg.Cluster == nil {
		pcfg.Cluster = testCluster(t, 16, 4, 2, nil)
	}
	p, err := NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	s, err := NewServer(ServerConfig{Pipeline: p, Registry: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, p
}

func postJSON(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestHTTPAdmitLeaveStats(t *testing.T) {
	ts, _ := newHTTPFixture(t, PipelineConfig{})

	resp, body := postJSON(t, ts.URL+"/v1/admit", `{"game": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: status %d body %v", resp.StatusCode, body)
	}
	sid, ok := body["session"].(float64)
	if !ok {
		t.Fatalf("admit response lacks session: %v", body)
	}
	if _, ok := body["server"]; !ok {
		t.Fatalf("admit response lacks server: %v", body)
	}

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	json.NewDecoder(r.Body).Decode(&stats)
	r.Body.Close()
	if stats["placed"].(float64) != 1 || stats["active"].(float64) != 1 {
		t.Fatalf("stats after one admit: %v", stats)
	}

	leaveBody := fmt.Sprintf(`{"session": %d}`, int(sid))
	resp, _ = postJSON(t, ts.URL+"/v1/leave", leaveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/leave", leaveBody)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double leave: status %d, want 404", resp.StatusCode)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/admit", `{bad json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: status %d, want 400", resp.StatusCode)
	}

	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
	// The obs surface rides the same mux.
	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", r.StatusCode)
	}
}

// TestHTTPNoCapacity: a saturated fleet answers 409, not 5xx — the
// client's session is rejected, the service is healthy.
func TestHTTPNoCapacity(t *testing.T) {
	ts, _ := newHTTPFixture(t, PipelineConfig{
		Cluster: nil, // 16 servers x 2 slots via fixture default
	})
	var last *http.Response
	for i := 0; i < 33; i++ {
		last, _ = postJSON(t, ts.URL+"/v1/admit", `{"game": 1}`)
	}
	if last.StatusCode != http.StatusConflict {
		t.Fatalf("admit past capacity: status %d, want 409", last.StatusCode)
	}
}

// TestHTTPBackpressure: a full admission queue surfaces as 429 with a
// Retry-After header — explicit backpressure, not a hung request.
func TestHTTPBackpressure(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	cl := testCluster(t, 32, 2, 4, gatedScorer(entered, gate))
	ts, p := newHTTPFixture(t, PipelineConfig{
		Cluster: cl, QueueCap: 2, BatchWindow: 1,
	})

	done := make(chan struct{})
	admitAsync := func() {
		go func() {
			postJSON(t, ts.URL+"/v1/admit", `{"game": 1}`)
			done <- struct{}{}
		}()
	}
	admitAsync()
	<-entered
	admitAsync()
	admitAsync()
	waitFor(t, func() bool { return p.QueueDepth() == 2 }, 5*time.Second)

	resp, _ := postJSON(t, ts.URL+"/v1/admit", `{"game": 1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("admit on full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(gate)
	for i := 0; i < 3; i++ {
		<-done
	}
}

// TestHTTPShutdownDrain: Shutdown over a real listener — draining flips
// healthz to 503, in-flight work completes, the fleet keeps every
// admitted session.
func TestHTTPShutdownDrain(t *testing.T) {
	c := testCluster(t, 16, 4, 2, nil)
	p, err := NewPipeline(PipelineConfig{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Pipeline: p, Registry: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr()
	resp, _ := postJSON(t, url+"/v1/admit", `{"game": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d", resp.StatusCode)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := p.Admit(1); err != ErrDraining {
		t.Fatalf("admit after shutdown: %v", err)
	}
	if st := p.Stats(); st.Placed != 1 || st.Active != 1 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestHTTPSlowHeaderClosed: a client that opens a connection and never
// finishes its request headers is cut off after ReadHeaderTimeout instead of
// holding a connection and a goroutine for as long as it likes.
func TestHTTPSlowHeaderClosed(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{Cluster: testCluster(t, 16, 4, 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	s.http.ReadHeaderTimeout = 50 * time.Millisecond
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/admit HTTP/1.1\r\nHost: gaugur\r\n")); err != nil {
		t.Fatal(err)
	}
	// The test's own patience, far beyond the server's: hitting it means
	// the server was still waiting for the blank line.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept a connection with unfinished headers open: %v", err)
	}
}

// TestHTTPSlowBodyClosed: a client that sends its headers and then stalls the
// body is cut off after ReadTimeout. ReadHeaderTimeout stops counting at the
// blank line and IdleTimeout only runs between requests, so without it the
// handler waited on the body, holding its goroutine, for as long as the
// client liked.
func TestHTTPSlowBodyClosed(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{Cluster: testCluster(t, 16, 4, 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	if s.http.ReadTimeout <= 0 {
		t.Fatal("the admission server sets no ReadTimeout")
	}
	s.http.ReadTimeout = 50 * time.Millisecond
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := "POST /v1/admit HTTP/1.1\r\nHost: gaugur\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n"
	if _, err := conn.Write([]byte(head + `{"game":`)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept a connection with a stalled body open: %v", err)
	}
	if st := p.Stats(); st.Placed != 0 {
		t.Fatalf("a half-sent admit was placed: %+v", st)
	}
}

// TestHTTPOversizedBodyRefused: a body past the cap is refused with 413
// before the decoder has buffered it; one that is not exactly a request
// object naming its one field is refused with 400. Nothing is placed or
// removed either way — session 0 is live throughout, so a leave that
// defaulted its id would take it.
func TestHTTPOversizedBodyRefused(t *testing.T) {
	ts, p := newHTTPFixture(t, PipelineConfig{})
	if resp, out := postJSON(t, ts.URL+"/v1/admit", `{"game": 3}`); resp.StatusCode != http.StatusOK || out["session"] != 0.0 {
		t.Fatalf("first admit: status %d %v, want session 0", resp.StatusCode, out)
	}
	pad := strings.Repeat(" ", 1<<20)
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/admit", pad + `{"game": 3}`, http.StatusRequestEntityTooLarge},
		{"/v1/leave", pad + `{"session": 0}`, http.StatusRequestEntityTooLarge},
		{"/v1/admit", `{"game":3} trailing junk`, http.StatusBadRequest},
		{"/v1/admit", `{"game":3}{"game":4}`, http.StatusBadRequest},
		{"/v1/admit", `{"game":3,"priority":1}`, http.StatusBadRequest},
		{"/v1/admit", `{}`, http.StatusBadRequest},
		{"/v1/admit", `{"game":null}`, http.StatusBadRequest},
		{"/v1/leave", `{"session":0} x`, http.StatusBadRequest},
		{"/v1/leave", `{"session":0,"game":3}`, http.StatusBadRequest},
		{"/v1/leave", `{}`, http.StatusBadRequest},
	} {
		resp, out := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s %.40q: status %d %v, want %d", tc.path, tc.body, resp.StatusCode, out, tc.want)
		}
		if st := p.Stats(); st.Placed != 1 || st.Removed != 0 {
			t.Fatalf("%s %.40q reached the fleet: %+v", tc.path, tc.body, st)
		}
	}
}

// TestHTTPUnknownGameRefused: a game the scorer cannot score is a 400 at the
// door, never a scorer call; the server goes on serving.
func TestHTTPUnknownGameRefused(t *testing.T) {
	ts, p := newHTTPFixture(t, profiledOnly(t))
	for _, body := range []string{`{"game":123456}`, `{"game":-1}`} {
		resp, out := postJSON(t, ts.URL+"/v1/admit", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("admit %s: status %d %v, want 400", body, resp.StatusCode, out)
		}
		if st := p.Stats(); st.Placed != 0 {
			t.Fatalf("admit %s was placed: %+v", body, st)
		}
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("healthz after admit %s: %d", body, r.StatusCode)
		}
	}
	if resp, out := postJSON(t, ts.URL+"/v1/admit", `{"game":9}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("profiled game after the refusals: status %d %v", resp.StatusCode, out)
	}
}

// FuzzHTTPBody sends arbitrary bytes as the body of an admit or a leave, with
// an arbitrary trace-id header, through the full mux to a tiny live cluster.
// Whatever arrives, the answer is one of the statuses the API documents, a
// session is placed or removed only under a 200, and the cluster's books
// balance after every input.
func FuzzHTTPBody(f *testing.F) {
	f.Add(false, []byte(`{"game": 3}`), "")
	f.Add(true, []byte(`{"session": 0}`), "00000000000000ff")
	f.Add(false, []byte(`{}`), "")
	f.Add(false, []byte(`{"game":3} trailing junk`), "")
	f.Add(false, []byte(`{"game":3,"priority":1}`), "")
	f.Add(true, []byte(`{"session":0,"game":3}`), "")
	f.Add(false, []byte(strings.Repeat(" ", 5<<10)+`{"game":3}`), "")
	f.Add(false, []byte(`{"game": 4}`), "not a trace id")
	f.Add(false, []byte(`{"game": 5}`), "1ffffffffffffffff") // overflows 64 bits
	f.Add(false, []byte(`{"game": 6}`), "deadbeefcafef00d")

	pcfg := profiledOnly(f)
	p, err := NewPipeline(pcfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(p.Close)
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		f.Fatal(err)
	}
	documented := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusConflict: true, http.StatusRequestEntityTooLarge: true,
		http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
	}
	f.Fuzz(func(t *testing.T, leave bool, body []byte, traceID string) {
		path := "/v1/admit"
		if leave {
			path = "/v1/leave"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set(TraceHeader, traceID)
		before := p.Stats()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		after := p.Stats()
		if !documented[rec.Code] {
			t.Fatalf("%s %.40q: undocumented status %d: %s", path, body, rec.Code, rec.Body)
		}
		var placed, removed int
		if rec.Code == http.StatusOK {
			if leave {
				removed = 1
			} else {
				placed = 1
			}
		}
		if after.Placed-before.Placed != placed || after.Removed-before.Removed != removed {
			t.Fatalf("%s %.40q answered %d but moved placed %d→%d, removed %d→%d",
				path, body, rec.Code, before.Placed, after.Placed, before.Removed, after.Removed)
		}
		if err := fleet.CheckInvariants(pcfg.Cluster); err != nil {
			t.Fatal(err)
		}
	})
}
