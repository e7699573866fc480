package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"gaugur/internal/core"
	"gaugur/internal/experiments"
	"gaugur/internal/obs"
	"gaugur/internal/obs/flight"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/serve"
	"gaugur/internal/sim"
)

// fixture is a frozen fleet + pipeline configuration. Both run with the
// production observability plane (see newStack). Re-sync them with the
// CLI only in an issue that changes the benchmark, never in one that
// claims a gain.
type fixture struct {
	name                             string
	servers, shards, k, maxPerServer int
	cacheCap                         int // 0 = fleet default
	seed                             int64
	lanes, window, queueCap          int
	delay                            time.Duration
}

var (
	// serveDefault copies the `gaugur serve` flag defaults at the commit
	// that added this benchmark.
	serveDefault = fixture{
		name: "serve_default", servers: 1024, shards: 8, k: 2, maxPerServer: 4, seed: 17,
		lanes: 1, window: 16, delay: 200 * time.Microsecond, queueCap: 256,
	}
	// fleet10k is the historic BenchmarkAdmission* fixture.
	fleet10k = fixture{
		name: "fleet_10k", servers: 10240, shards: 16, k: 8, maxPerServer: 4, cacheCap: 256, seed: 1,
		lanes: 1, window: 16, delay: 0, queueCap: 1024,
	}
)

// model is everything a repetition needs from set-up: the world, the
// trained predictor, and the study games.
type model struct {
	env    *experiments.Env
	scorer fleet.BatchScorer
	ten    []int // Env.TenGames()
	all    []int // every catalog game id
}

// setupTimes are the offline phases of one cold model build, in seconds.
type setupTimes struct {
	Catalog, Collect, Train, Compile, Load, Total float64
}

// buildModel runs the whole offline pipeline once — profile the catalog,
// collect samples, train, compile, save to path and load it back — timing
// each public call from outside.
func buildModel(path string) (setupTimes, error) {
	var t setupTimes
	start := time.Now()
	last := start
	lap := func() float64 {
		now := time.Now()
		d := now.Sub(last).Seconds()
		last = now
		return d
	}
	env, err := experiments.New(experiments.DefaultConfig())
	if err != nil {
		return t, err
	}
	t.Catalog = lap()
	env.Samples(env.Cfg.QoSHigh)
	t.Collect = lap()
	p, err := env.GAugur(env.Cfg.QoSHigh)
	if err != nil {
		return t, err
	}
	t.Train = lap()
	// Train already compiled; compiling again times that step alone.
	p.Compile()
	t.Compile = lap()
	f, err := os.Create(path)
	if err != nil {
		return t, err
	}
	if err := p.Save(f); err != nil {
		f.Close()
		return t, err
	}
	if err := f.Close(); err != nil {
		return t, err
	}
	lap()
	if _, err := loadModel(path); err != nil {
		return t, err
	}
	t.Load = lap()
	t.Total = time.Since(start).Seconds()
	return t, nil
}

// loadModel rebuilds the world (profiling is deterministic and takes
// milliseconds) and binds the saved predictor to it.
func loadModel(path string) (*model, error) {
	env, err := experiments.New(experiments.DefaultConfig())
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := core.LoadPredictor(f, env.Profiles)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	m := &model{env: env, scorer: fleet.NewPredictorScorer(p), ten: env.TenGames()}
	for _, g := range env.Catalog.Games {
		m.all = append(m.all, g.ID)
	}
	return m, nil
}

// groundTruthFPS is the noise-free frame rate of every session on one
// server, at the resolution the scorer assumes.
func (m *model) groundTruthFPS(games []int) []float64 {
	insts := make([]sim.Instance, len(games))
	for i, g := range games {
		insts[i] = sim.NewInstance(m.env.Catalog.Games[g], core.ReferenceResolution)
	}
	return m.env.Server.ExpectedFPS(insts)
}

// stackOpts are the ways a repetition departs from its fixture.
type stackOpts struct {
	noObs   bool              // no registry, tracer or flight recorder (obs.overhead_pct)
	lanes   int               // 0 = the fixture's (pipeline.lanes2_ratio)
	wire    string            // "", "binary" or "http"
	scorer  fleet.BatchScorer // nil = the model's; the timing decorator goes here
	prefill []int             // games placed before the pipeline starts
}

// held is one live session as its client knows it.
type held struct{ session, server, game int }

// stack is one complete admission plane on a fresh fleet.
type stack struct {
	cluster *fleet.Cluster
	pipe    *serve.Pipeline
	srv     *serve.Server // nil without a wire
	reg     *obs.Registry // nil with noObs
	static  []held        // the prefill
	down    bool
}

func newStack(m *model, fx fixture, o stackOpts) (*stack, error) {
	st := &stack{}
	var tracer *trace.Tracer
	var rec *flight.Recorder
	if !o.noObs {
		// The production plane of `gaugur serve`: registry on, 1% tail
		// sampling that always keeps slow and failed traces, flight
		// recorder at default capacity, one clock for both.
		st.reg = obs.New()
		base := time.Now()
		clock := func() int64 { return int64(time.Since(base)) }
		tracer = trace.New(trace.Config{
			Seed:  sim.DeriveSeed(fx.seed, "trace", 0),
			Clock: clock,
			Tail:  &trace.TailPolicy{Rate: 0.01, SlowQuantile: 0.99},
		})
		rec = flight.New(flight.DefaultCapacity, clock)
	}
	scorer := o.scorer
	if scorer == nil {
		scorer = m.scorer
	}
	c, err := fleet.New(fleet.Config{
		NumServers: fx.servers, ShardCount: fx.shards, MaxPerServer: fx.maxPerServer,
		K: fx.k, Seed: fx.seed, Scorer: scorer, CacheCap: fx.cacheCap,
		Metrics: st.reg, Tracer: tracer, Flight: rec,
	})
	if err != nil {
		return nil, err
	}
	st.cluster = c
	for i := 0; i < len(o.prefill); i += fx.window {
		chunk := o.prefill[i:min(i+fx.window, len(o.prefill))]
		for j, r := range c.PlaceBatch(chunk, nil) {
			if !r.OK {
				c.Close()
				return nil, fmt.Errorf("prefill: no capacity at session %d", i+j)
			}
			st.static = append(st.static, held{r.Session, r.Server, chunk[j]})
		}
	}
	lanes := fx.lanes
	if o.lanes > 0 {
		lanes = o.lanes
	}
	st.pipe, err = serve.NewPipeline(serve.PipelineConfig{
		Cluster: c, Lanes: lanes, BatchWindow: fx.window, BatchDelay: fx.delay,
		QueueCap: fx.queueCap, Metrics: st.reg, Tracer: tracer, Flight: rec,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	if o.wire == "" {
		return st, nil
	}
	st.srv, err = serve.NewServer(serve.ServerConfig{Pipeline: st.pipe, Registry: st.reg})
	if err == nil && o.wire == "binary" {
		err = st.srv.StartBinary("127.0.0.1:0")
	} else if err == nil {
		err = st.srv.Start("127.0.0.1:0")
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// shutdown drains the front end; afterwards the cluster is quiescent and
// may be inspected from the calling goroutine.
func (st *stack) shutdown() error {
	if st.down {
		return nil
	}
	st.down = true
	if st.srv != nil {
		return st.srv.Shutdown()
	}
	st.pipe.Close()
	return nil
}

func (st *stack) close() {
	st.shutdown()
	st.cluster.Close()
}

// client is one connection's view of the admission API; a layer is
// measured by timing calls through one of these from outside.
type client interface {
	Admit(game int) (session, server int, err error)
	Leave(session int) error
	Close() error
}

// dial opens one client on the stack: a persistent connection when the
// stack has a wire, a direct caller of the pipeline otherwise.
func (st *stack) dial(wire string) (client, error) {
	switch wire {
	case "binary":
		return serve.DialBinary(st.srv.BinaryAddr())
	case "http":
		return &httpClient{
			base: "http://" + st.srv.Addr(),
			// One keep-alive connection per client, like one binary conn.
			hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		}, nil
	default:
		return pipeClient{st.pipe}, nil
	}
}

type pipeClient struct{ p *serve.Pipeline }

func (c pipeClient) Admit(game int) (int, int, error) {
	pl, err := c.p.Admit(game)
	return pl.Session, pl.Server, err
}
func (c pipeClient) Leave(session int) error { return c.p.Leave(session) }
func (c pipeClient) Close() error            { return nil }

// httpClient speaks POST /v1/admit and /v1/leave; status codes map back
// to the pipeline's sentinel errors so every client classifies failures
// the same way.
type httpClient struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func (c *httpClient) post(path string, body string, out any) error {
	c.buf.Reset()
	c.buf.WriteString(body)
	resp, err := c.hc.Post(c.base+path, "application/json", &c.buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if out != nil {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
	case http.StatusTooManyRequests:
		err = serve.ErrQueueFull
	case http.StatusServiceUnavailable:
		err = serve.ErrDraining
	case http.StatusConflict:
		err = serve.ErrNoCapacity
	case http.StatusNotFound:
		err = serve.ErrUnknownSession
	default:
		err = fmt.Errorf("http status %d", resp.StatusCode)
	}
	// Drain so the keep-alive connection is reused.
	io.Copy(io.Discard, resp.Body)
	return err
}

func (c *httpClient) Admit(game int) (int, int, error) {
	var r struct{ Session, Server int }
	err := c.post("/v1/admit", fmt.Sprintf(`{"game":%d}`, game), &r)
	return r.Session, r.Server, err
}

func (c *httpClient) Leave(session int) error {
	return c.post("/v1/leave", fmt.Sprintf(`{"session":%d}`, session), nil)
}

func (c *httpClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
