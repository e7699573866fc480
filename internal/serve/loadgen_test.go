package serve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gaugur/internal/obs"
	"gaugur/internal/sim"
)

// TestLoadGenHTTP replays a short flash-crowd trace over real sockets
// end to end: every request must succeed (admitted or cleanly rejected
// on capacity), sessions leave, and the drain hands the fleet back empty.
func TestLoadGenHTTP(t *testing.T) {
	runLoadGenProto(t, false)
}

func TestLoadGenBinary(t *testing.T) {
	runLoadGenProto(t, true)
}

func runLoadGenProto(t *testing.T, binaryProto bool) {
	c := testCluster(t, 64, 4, 4, nil)
	p, err := NewPipeline(PipelineConfig{
		Cluster:     c,
		BatchWindow: 16,
		BatchDelay:  200 * time.Microsecond,
		Metrics:     obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Pipeline: p, Registry: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LoadGenConfig{
		Crowd: sim.FlashCrowd{
			Base:  400,
			Peaks: []sim.CrowdPeak{{At: 0.1, Duration: 0.1, Factor: 3}},
		},
		Horizon:   0.3,
		TimeScale: 1,
		MeanHold:  0.15,
		Games:     []int{0, 1, 2, 3, 4, 5},
		Seed:      11,
		Workers:   8,
	}
	if binaryProto {
		if err := s.StartBinary("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		cfg.Binary = true
		cfg.Target = s.BinaryAddr()
	} else {
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		cfg.Target = "http://" + s.Addr()
	}

	res, err := RunLoadGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Reconnects != 0 {
		t.Fatalf("healthy run had errors or redials: %+v", res)
	}
	if res.Sent < 50 || res.Admitted == 0 {
		t.Fatalf("trace barely ran: %+v", res)
	}
	if res.Admitted != res.Left {
		t.Fatalf("admitted %d but only %d left: drain incomplete", res.Admitted, res.Left)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := p.Stats(); st.Active != 0 {
		t.Fatalf("fleet not empty after loadgen drain: %+v", st)
	}
}

// TestLoadGenHTTPReusesConnection: the generator's HTTP client must keep one
// keep-alive connection across leaves (answered `{}`) and rejected admits
// (429 with an error body) — a body closed unread costs the connection, and
// the next request's latency then includes a TCP handshake.
func TestLoadGenHTTPReusesConnection(t *testing.T) {
	const n = 20
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/leave", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "{}\n")
	})
	mux.HandleFunc("/v1/admit", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"serve: admission queue full"}`+"\n")
	})
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(mux)
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	cl, err := newLGClient(LoadGenConfig{Target: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	for i := 0; i < n; i++ {
		if err := cl.leave(i); err != nil {
			t.Fatalf("leave %d: %v", i, err)
		}
		if _, _, err := cl.admit(1, 0); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("admit %d: %v, want the queue-full sentinel", i, err)
		}
	}
	if got := opened.Load(); got != 1 {
		t.Fatalf("%d leaves and %d rejected admits opened %d connections, want 1", n, n, got)
	}
}

// TestLoadGenReconnect: a worker's binary connection severed by the server
// is transparent to the replay. The server drops every connection that
// sits idle past its frame timeout, and the paced trace leaves each worker
// idle longer than that between arrivals: the worker's next request hits
// the dead stream, redials once and retries, every request still succeeds,
// and the redials are counted.
func TestLoadGenReconnect(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{Cluster: testCluster(t, 16, 4, 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	s.binTimeout = 50 * time.Millisecond
	if err := s.StartBinary("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.closeBinary(); p.Close() })

	res, err := RunLoadGen(LoadGenConfig{
		Target: s.BinaryAddr(), Binary: true,
		Crowd:   sim.FlashCrowd{Base: 5},
		Horizon: 2, TimeScale: 1,
		Games: []int{0, 1, 2}, Seed: 5, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Admitted != res.Sent || res.Left != res.Admitted || res.Sent < 3 {
		t.Fatalf("severed connections were not transparent: %+v", res)
	}
	if res.Reconnects == 0 {
		t.Fatalf("%d paced arrivals over a 50ms idle timeout redialed nothing: %+v", res.Sent, res)
	}
	if st := p.Stats(); st.Active != 0 {
		t.Fatalf("sessions left behind: %d", st.Active)
	}
}
