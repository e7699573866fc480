package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"gaugur/internal/sim"
	"gaugur/internal/stats"
)

// LoadGenConfig replays a sim.FlashCrowd arrival trace against a running
// admission server, over the wire, at wall-clock pace.
type LoadGenConfig struct {
	// Target is the server's base URL for HTTP ("http://host:port") or
	// host:port for the binary protocol.
	Target string
	// Binary selects the length-prefixed protocol instead of HTTP/JSON.
	Binary bool
	// Crowd shapes the arrival rate over simulated time (requests/sec).
	Crowd sim.FlashCrowd
	// Horizon is the simulated trace duration in seconds.
	Horizon float64
	// TimeScale compresses simulated time: a sim-second takes
	// 1/TimeScale wall-seconds; <= 0 defaults to 1 (real time).
	TimeScale float64
	// MeanHold is the mean session lifetime in simulated seconds; <= 0
	// means sessions never leave during the run. All still-active
	// sessions are removed at the end either way, so a clean run leaves
	// the fleet empty.
	MeanHold float64
	// Games is the game-id population, sampled uniformly; required.
	Games []int
	// Seed drives arrivals, game draws, and hold times.
	Seed int64
	// Workers bounds concurrent in-flight requests; <= 0 defaults to 32.
	// Over the binary protocol each worker owns one persistent connection;
	// over HTTP the standard transport pools connections itself.
	Workers int
	// Trace mints a deterministic trace identifier per arrival — the n-th
	// arrival always carries DeriveSeed(Seed, "loadgen-trace", n) — and
	// propagates it over the wire (the X-Gaugur-Trace-Id header, or the
	// binary traced-admit op), so server-side traces of a replayed run are
	// rooted at byte-stable identities.
	Trace bool
}

// LoadGenResult is one replay's summary.
type LoadGenResult struct {
	Sent             int
	Admitted         int
	RejectedCapacity int
	RejectedQueue    int
	RejectedDraining int
	Left             int
	Errors           int
	// P50 and P99 are end-to-end admission latencies (queue wait + batch
	// dispatch + network), measured at the client around the wire round
	// trip alone.
	P50, P99 time.Duration
	// Reconnects counts binary connections redialed after a transport
	// error mid-run (always 0 for HTTP).
	Reconnects int64
	Elapsed    time.Duration
	// PlacementsPerSec is admitted sessions per wall-clock second.
	PlacementsPerSec float64
}

func (r LoadGenResult) String() string {
	s := fmt.Sprintf(
		"sent %d admitted %d (capacity-rejected %d, queue-rejected %d, draining %d, errors %d) left %d | p50 %v p99 %v | %.0f placements/s in %v",
		r.Sent, r.Admitted, r.RejectedCapacity, r.RejectedQueue, r.RejectedDraining,
		r.Errors, r.Left, r.P50, r.P99, r.PlacementsPerSec, r.Elapsed.Round(time.Millisecond))
	if r.Reconnects > 0 {
		s += fmt.Sprintf(" | %d reconnects", r.Reconnects)
	}
	return s
}

// lgClient abstracts the two wire protocols for the generator workers,
// each of which owns one. A traceID of 0 means "don't propagate" (the
// server mints its own). admit reports the request's wire latency itself,
// so a binary redial stays out of the percentiles.
type lgClient interface {
	admit(game int, traceID uint64) (session int, lat time.Duration, err error)
	leave(session int) error
	close()
}

// holdItem is one scheduled mid-run leave; holdHeap is a plain binary
// min-heap on expiry time (ties by session id, for a stable order).
type holdItem struct {
	at  float64
	sid int
}

type holdHeap []holdItem

func (h holdHeap) less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].sid < h[b].sid
}

func (h *holdHeap) push(it holdItem) {
	*h = append(*h, it)
	for i := len(*h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *holdHeap) pop() holdItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	for i := 0; ; {
		l, r, small := 2*i+1, 2*i+2, i
		if l < last && h.less(l, small) {
			small = l
		}
		if r < last && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

type lgJob struct {
	admit   bool
	game    int
	session int
	hold    float64 // sim-seconds; 0 = never leaves
	traceID uint64  // client-minted propagated trace ID; 0 = none
}

// RunLoadGen replays the trace. The arrival schedule is deterministic in
// Seed; wall-clock pacing and concurrent completion order are not.
func RunLoadGen(cfg LoadGenConfig) (LoadGenResult, error) {
	if err := cfg.Crowd.Validate(); err != nil {
		return LoadGenResult{}, err
	}
	if cfg.Horizon <= 0 || len(cfg.Games) == 0 {
		return LoadGenResult{}, fmt.Errorf("serve: loadgen needs Horizon and Games")
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 32
	}

	var (
		mu   sync.Mutex
		res  LoadGenResult
		lats []time.Duration
		// live tracks admitted sessions whose leave is not yet scheduled
		// (the scheduler claims a session out of live the moment it
		// dispatches its leave, so one session gets exactly one leave);
		// pendingAdmits/pendingLeaves count jobs handed to workers but not
		// yet recorded, so the end drain never snapshots mid-flight state.
		live          = map[int]bool{}
		holds         holdHeap
		pendingAdmits int
		pendingLeaves int
	)
	jobs := make(chan lgJob, workers)
	clients := make([]lgClient, 0, workers)
	defer func() {
		for _, cl := range clients {
			cl.close()
		}
	}()
	for w := 0; w < workers; w++ {
		cl, err := newLGClient(cfg)
		if err != nil {
			return LoadGenResult{}, err
		}
		clients = append(clients, cl)
	}
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				if !job.admit {
					err := cl.leave(job.session)
					mu.Lock()
					if err == nil {
						res.Left++
					} else {
						res.Errors++
					}
					pendingLeaves--
					mu.Unlock()
					continue
				}
				sid, lat, err := cl.admit(job.game, job.traceID)
				mu.Lock()
				pendingAdmits--
				res.Sent++
				switch err {
				case nil:
					res.Admitted++
					lats = append(lats, lat)
					live[sid] = true
					if job.hold > 0 {
						holds.push(holdItem{at: job.hold, sid: sid})
					}
				case ErrNoCapacity:
					res.RejectedCapacity++
				case ErrQueueFull:
					res.RejectedQueue++
				case ErrDraining:
					res.RejectedDraining++
				default:
					res.Errors++
				}
				mu.Unlock()
			}
		}()
	}

	// The scheduler paces the deterministic arrival trace in wall time,
	// interleaving leaves whose (simulated) hold expired.
	rng := rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, "loadgen", 0)))
	start := time.Now()
	now := 0.0
	arrival := int64(0)
	for {
		next := cfg.Crowd.Next(now, rng)
		game := cfg.Games[rng.Intn(len(cfg.Games))]
		hold := 0.0
		if cfg.MeanHold > 0 {
			hold = rng.ExpFloat64() * cfg.MeanHold
		}
		if next > cfg.Horizon {
			break
		}
		if d := time.Duration(float64(time.Second) * next / cfg.TimeScale); d > time.Since(start) {
			time.Sleep(d - time.Since(start))
		}
		// Claim due leaves under the lock, send after releasing it — a
		// worker blocked on the lock must be able to free job capacity.
		var due []int
		mu.Lock()
		for len(holds) > 0 && holds[0].at <= next {
			d := holds.pop()
			if live[d.sid] {
				delete(live, d.sid)
				pendingLeaves++
				due = append(due, d.sid)
			}
		}
		mu.Unlock()
		for _, sid := range due {
			jobs <- lgJob{session: sid}
		}
		now = next
		holdAt := 0.0
		if hold > 0 {
			holdAt = now + hold
		}
		var traceID uint64
		if cfg.Trace {
			// The n-th arrival's identity is a pure function of the seed,
			// so a replayed run roots the same traces at the same IDs.
			traceID = uint64(sim.DeriveSeed(cfg.Seed, "loadgen-trace", arrival))
		}
		arrival++
		mu.Lock()
		pendingAdmits++
		mu.Unlock()
		jobs <- lgJob{admit: true, game: game, hold: holdAt, traceID: traceID}
	}

	// End drain: wait until every admit has been recorded, claim all
	// surviving sessions for a final leave, then wait for those — a clean
	// run hands the fleet back empty.
	settle := func(f func() int) {
		for {
			mu.Lock()
			n := f()
			mu.Unlock()
			if n == 0 {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	settle(func() int { return pendingAdmits })
	mu.Lock()
	sids := make([]int, 0, len(live))
	for sid := range live {
		sids = append(sids, sid)
		delete(live, sid)
	}
	pendingLeaves += len(sids)
	holds = holds[:0]
	mu.Unlock()
	sort.Ints(sids)
	for _, sid := range sids {
		jobs <- lgJob{session: sid}
	}
	settle(func() int { return pendingLeaves })
	close(jobs)
	wg.Wait()

	for _, cl := range clients {
		if b, ok := cl.(*binLGClient); ok {
			res.Reconnects += b.reconnects
		}
	}
	res.Elapsed = time.Since(start)
	res.P50, res.P99 = stats.LatencyPercentiles(lats)
	if res.Elapsed > 0 {
		res.PlacementsPerSec = float64(res.Admitted) / res.Elapsed.Seconds()
	}
	return res, nil
}

// newLGClient builds one worker's client: a persistent binary connection,
// or an HTTP client on the standard transport's shared connection pool.
func newLGClient(cfg LoadGenConfig) (lgClient, error) {
	if cfg.Binary {
		c, err := DialBinary(cfg.Target)
		if err != nil {
			return nil, fmt.Errorf("serve: loadgen dial: %w", err)
		}
		return &binLGClient{target: cfg.Target, c: c}, nil
	}
	return &httpLGClient{base: cfg.Target, c: &http.Client{Timeout: 30 * time.Second}}, nil
}

// binLGClient is one worker's persistent binary connection. A transport
// error leaves the byte stream in an unknown state, so it retires the
// connection: the request is retried once on a fresh dial, and every
// redial counts as a reconnect.
type binLGClient struct {
	target     string
	c          *BinaryClient // nil once a transport error retired it
	reconnects int64
}

// isProtoReject reports whether err is an application-level outcome the
// server delivered over a healthy connection. Anything else — transport
// errors, short reads, malformed frames — retires the connection.
func isProtoReject(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrNoCapacity) || errors.Is(err, ErrUnknownSession)
}

// do runs one round trip, redialing first if a previous request retired
// the connection, and retries once on a fresh connection when the
// transport fails mid-request. lat is the successful round trip alone.
func (b *binLGClient) do(fn func(c *BinaryClient) error) (lat time.Duration, err error) {
	for attempt := 0; attempt < 2; attempt++ {
		if b.c == nil {
			if b.c, err = DialBinary(b.target); err != nil {
				return 0, err
			}
			b.reconnects++
		}
		t0 := time.Now()
		if err = fn(b.c); err == nil || isProtoReject(err) {
			return time.Since(t0), err
		}
		b.c.Close()
		b.c = nil
	}
	return 0, err
}

func (b *binLGClient) admit(game int, traceID uint64) (session int, lat time.Duration, err error) {
	lat, err = b.do(func(c *BinaryClient) (e error) {
		if traceID != 0 {
			session, _, e = c.AdmitTraced(game, traceID)
		} else {
			session, _, e = c.Admit(game)
		}
		return e
	})
	return session, lat, err
}

func (b *binLGClient) leave(session int) error {
	_, err := b.do(func(c *BinaryClient) error { return c.Leave(session) })
	return err
}

func (b *binLGClient) close() {
	if b.c != nil {
		b.c.Close()
	}
}

type httpLGClient struct {
	base string
	c    *http.Client
}

func (h *httpLGClient) post(path string, req, resp any, traceID uint64) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	hr, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if traceID != 0 {
		hr.Header.Set(TraceHeader, fmt.Sprintf("%016x", traceID))
	}
	r, err := h.c.Do(hr)
	if err != nil {
		return 0, err
	}
	// Drain before close: net/http discards a keep-alive connection whose
	// body was closed unread, which would put a TCP handshake inside every
	// leave and every rejected admit the generator times. A failed drain
	// costs only that reuse.
	defer func() {
		_, _ = io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}()
	if r.StatusCode == http.StatusOK && resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			return 0, err
		}
	}
	return r.StatusCode, nil
}

// httpErr maps the status codes writeErr produces back to the sentinels,
// so both protocols report through the same result buckets.
func httpErr(code int) error {
	switch code {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests:
		return ErrQueueFull
	case http.StatusServiceUnavailable:
		return ErrDraining
	case http.StatusConflict:
		return ErrNoCapacity
	case http.StatusNotFound:
		return ErrUnknownSession
	default:
		return fmt.Errorf("serve: http status %d", code)
	}
}

func (h *httpLGClient) admit(game int, traceID uint64) (int, time.Duration, error) {
	var resp admitResp
	t0 := time.Now()
	code, err := h.post("/v1/admit", admitReq{Game: &game}, &resp, traceID)
	lat := time.Since(t0)
	if err != nil {
		return 0, lat, err
	}
	if err := httpErr(code); err != nil {
		return 0, lat, err
	}
	return resp.Session, lat, nil
}

func (h *httpLGClient) leave(session int) error {
	code, err := h.post("/v1/leave", leaveReq{Session: &session}, nil, 0)
	if err != nil {
		return err
	}
	return httpErr(code)
}

func (h *httpLGClient) close() { h.c.CloseIdleConnections() }
