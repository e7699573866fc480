package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gaugur/internal/obs"
)

// ServerConfig parameterizes the admission front end's network surface.
type ServerConfig struct {
	// Pipeline is the coalescing admission pipeline; required. The server
	// owns its drain: Shutdown closes it.
	Pipeline *Pipeline
	// Registry, when non-nil, mounts the full obs surface (/metrics,
	// /metrics.json, /debug/vars, /debug/pprof/*) on the same mux as the
	// admission API.
	Registry *obs.Registry
	// Extra handlers ride on the mux (e.g. the span tracer's
	// /debug/traces).
	Extra []obs.Mount
	// DrainTimeout bounds how long Shutdown waits for in-flight HTTP
	// requests; <= 0 defaults to 10s.
	DrainTimeout time.Duration
}

// What a client may make the admission server hold open or read. A request's
// headers must arrive within readHeaderTimeout of its first byte and the
// whole request, body included, within readTimeout; a keep-alive connection
// may sit idle for idleTimeout, and a binary connection may take as long to
// deliver each frame. Admit and leave bodies are a few dozen bytes, so
// maxBodyBytes is already generous.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	binFrameTimeout   = idleTimeout
	maxBodyBytes      = 4 << 10
)

// Server exposes the admission API over HTTP/JSON, with the obs runtime
// surface on the same mux, plus an optional length-prefixed binary
// listener for clients that can't afford JSON on the hot path.
type Server struct {
	cfg ServerConfig
	mux *http.ServeMux

	http *http.Server
	ln   net.Listener

	mu      sync.Mutex
	binLn   net.Listener
	binConn map[net.Conn]struct{}
	binWG   sync.WaitGroup
	// binTimeout bounds how long a binary connection may take to deliver
	// one frame, from the moment the server waits for it.
	binTimeout time.Duration
}

// NewServer builds the mux; call Start (and optionally StartBinary) to
// listen.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Pipeline == nil {
		return nil, fmt.Errorf("serve: ServerConfig needs a Pipeline")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	s := &Server{cfg: cfg, binConn: map[net.Conn]struct{}{}, binTimeout: binFrameTimeout}
	if cfg.Registry != nil {
		s.mux = obs.NewMux(cfg.Registry, cfg.Extra...)
	} else {
		s.mux = http.NewServeMux()
		for _, m := range cfg.Extra {
			s.mux.Handle(m.Pattern, m.Handler)
		}
	}
	s.mux.HandleFunc("POST /v1/admit", s.handleAdmit)
	s.mux.HandleFunc("POST /v1/leave", s.handleLeave)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.http = &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
	return s, nil
}

// Handler exposes the full mux — how in-process tests drive the API
// without sockets.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	go s.http.Serve(ln)
	return nil
}

// Addr returns the HTTP listener's bound address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully, in order: mark draining (healthz flips,
// new ops get 503), stop accepting connections and let in-flight HTTP
// requests finish, then close the pipeline so every queued batch is
// flushed before the fleet goes quiescent. Safe to call once.
func (s *Server) Shutdown() error {
	// Flip draining first so requests that are mid-handshake fail fast
	// with a retryable status instead of queueing work we're about to
	// refuse. closeOnce makes the later Close a pure wait.
	s.cfg.Pipeline.closed.Store(true)

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	err := s.http.Shutdown(ctx)
	cancel()
	if err != nil {
		s.http.Close()
	}
	s.closeBinary()
	s.cfg.Pipeline.Close()
	return err
}

// TraceHeader is the HTTP trace-propagation header: a 16-hex-digit trace
// identifier minted by the client (the load generator derives it from its
// simulation seed). The server roots the whole admission's span tree at
// that identity, so client and server logs meet on one trace ID. A
// malformed or absent header just mints a server-side ID.
const TraceHeader = "X-Gaugur-Trace-Id"

// headerTraceID parses the propagation header (0 when absent/malformed).
func headerTraceID(r *http.Request) uint64 {
	v := r.Header.Get(TraceHeader)
	if v == "" {
		return 0
	}
	id, err := strconv.ParseUint(v, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// admitReq / leaveReq / errResp are the JSON wire shapes. A request's one
// field is a pointer so that a body without it is told from one naming id 0.
type admitReq struct {
	Game *int `json:"game"`
}

type admitResp struct {
	Session int     `json:"session"`
	Server  int     `json:"server"`
	Shard   int     `json:"shard"`
	Delta   float64 `json:"delta"`
}

type leaveReq struct {
	Session *int `json:"session"`
}

type errResp struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps pipeline sentinels to HTTP semantics: queue-full and
// draining are retryable (429/503 with Retry-After), saturation is 409,
// an unknown session 404, a game the scorer cannot score 400.
func writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errResp{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errResp{Error: err.Error()})
	case errors.Is(err, ErrNoCapacity):
		writeJSON(w, http.StatusConflict, errResp{Error: err.Error()})
	case errors.Is(err, ErrUnknownSession):
		writeJSON(w, http.StatusNotFound, errResp{Error: err.Error()})
	case errors.Is(err, ErrUnknownGame):
		writeJSON(w, http.StatusBadRequest, errResp{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errResp{Error: err.Error()})
	}
}

// decodeBody reads a JSON request body of at most maxBodyBytes into v: one
// object of known fields and nothing after it. It answers a longer body with
// 413 and any other with 400, and reports whether the handler should go on.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Only the end of the body may follow the object.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("data after the request object")
		}
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, errResp{Error: "bad request: " + err.Error()})
	return false
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req admitReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Game == nil {
		writeJSON(w, http.StatusBadRequest, errResp{Error: `bad request: "game" is required`})
		return
	}
	pl, err := s.cfg.Pipeline.AdmitTraced(*req.Game, headerTraceID(r))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, admitResp{
		Session: pl.Session, Server: pl.Server, Shard: pl.Shard, Delta: pl.Delta,
	})
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req leaveReq
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Session == nil {
		writeJSON(w, http.StatusBadRequest, errResp{Error: `bad request: "session" is required`})
		return
	}
	if err := s.cfg.Pipeline.LeaveTraced(*req.Session, headerTraceID(r)); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Pipeline.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"placed":     st.Placed,
		"rejected":   st.Rejected,
		"removed":    st.Removed,
		"active":     st.Active,
		"peakActive": st.PeakActive,
		"escapes":    st.Escapes,
		"queueDepth": s.cfg.Pipeline.QueueDepth(),
		"lanes":      s.cfg.Pipeline.Lanes(),
		"draining":   s.cfg.Pipeline.Draining(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Pipeline.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
