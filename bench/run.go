package main

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gaugur/internal/obs"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/serve"
)

type phase int

const (
	phWarm phase = iota // discarded
	phOpen
	phClosed
	numPhases
)

var phaseNames = [numPhases]string{"warmup", "open", "closed"}

// counts is what one phase sent and what came back.
type counts struct {
	Admits, Admitted, Leaves, Left                   int
	QueueFull, Draining, NoCapacity, Unknown, Errors int
}

func (c *counts) add(o counts) {
	c.Admits += o.Admits
	c.Admitted += o.Admitted
	c.Leaves += o.Leaves
	c.Left += o.Left
	c.QueueFull += o.QueueFull
	c.Draining += o.Draining
	c.NoCapacity += o.NoCapacity
	c.Unknown += o.Unknown
	c.Errors += o.Errors
}

func (c counts) attempted() int { return c.Admits + c.Leaves }
func (c counts) failed() int {
	return c.QueueFull + c.Draining + c.NoCapacity + c.Unknown + c.Errors
}

func (c *counts) classify(err error) {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		c.QueueFull++
	case errors.Is(err, serve.ErrDraining):
		c.Draining++
	case errors.Is(err, serve.ErrNoCapacity):
		c.NoCapacity++
	case errors.Is(err, serve.ErrUnknownSession):
		c.Unknown++
	default:
		c.Errors++
	}
}

// sessionSet checks that no session id is ever handed out twice: an atomic
// bitset indexed by id (the fleet numbers sessions densely from zero), so
// the check costs one word write per admit and only the touched pages.
type sessionSet struct {
	bits []atomic.Uint64
	dups atomic.Int64
}

func newSessionSet() *sessionSet { return &sessionSet{bits: make([]atomic.Uint64, 1<<20)} }

func (s *sessionSet) mark(id int) {
	if id < 0 || id>>6 >= len(s.bits) {
		s.dups.Add(1) // out of any plausible range counts as a failed check
		return
	}
	word, bit := &s.bits[id>>6], uint64(1)<<(id&63)
	for {
		old := word.Load()
		if old&bit != 0 {
			s.dups.Add(1)
			return
		}
		if word.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// worker is one client goroutine: a connection, its op stream, the
// sessions it holds, and everything it measured.
type worker struct {
	r    *run
	id   int
	cl   client
	ops  *stream
	held []held // oldest first

	n       [numPhases]counts
	admitNS []int32 // due -> reply, recorded phases only
	leaveNS []int32
	rtNS    []int32 // send -> reply of admits, traced passes only
	sloOK   int
	backlog int
	spans   []span
	reqs    uint32
}

// run is one pass of one workload against one fresh stack.
type run struct {
	wl      *workload
	m       *model
	st      *stack
	seed    int64
	workers []*worker
	scorer  *timedScorer // traced passes only; non-nil is what "traced" means
	epoch   time.Time    // zero of the span clock
	t0      time.Time    // start of warm-up
	// recorded says which phases feed the latency percentiles: the open
	// loop where there is one, the closed loop otherwise.
	recorded [numPhases]bool
	// sampleEvery thins the latency samples of the in-process workloads
	// to every n-th op per worker, so that peak RSS is the program's and
	// not a sample buffer that grows with throughput.
	sampleEvery int
	seen        *sessionSet

	markAt     time.Time
	markCPU    float64
	markStats  fleet.Stats
	markReg    obs.Snapshot
	markBusy   int64
	closedWall time.Duration
	lateNS     []int32 // how late the pacer handed out each measured arrival
	quality    qualitySum
}

// passConfig says how to run one pass.
type passConfig struct {
	wl        *workload
	seed      int64
	warm, dur time.Duration
	traced    bool
	noObs     bool
	lanes     int
	inproc    bool // closed loop through the pipeline even for a wire workload
}

func newRun(m *model, pc passConfig) (*run, error) {
	r := &run{wl: pc.wl, m: m, seed: pc.seed, seen: newSessionSet(), epoch: time.Now(), sampleEvery: 1}
	if pc.wl.wire == "" {
		r.sampleEvery = 8
	}
	o := stackOpts{noObs: pc.noObs, lanes: pc.lanes, prefill: pc.wl.prefillGames(m, pc.seed)}
	if !pc.inproc {
		o.wire = pc.wl.wire
	}
	if pc.traced {
		r.scorer = &timedScorer{inner: m.scorer, t0: r.epoch, spans: true}
		o.scorer = r.scorer
	}
	st, err := newStack(m, pc.wl.fx, o)
	if err != nil {
		return nil, err
	}
	r.st = st
	for i := 0; i < pc.wl.workers(); i++ {
		cl, err := st.dial(o.wire)
		if err != nil {
			r.close()
			return nil, err
		}
		r.workers = append(r.workers, &worker{r: r, id: i, cl: cl, ops: pc.wl.newStream(m, pc.seed, i)})
	}
	return r, nil
}

func (r *run) close() {
	for _, w := range r.workers {
		w.cl.Close()
	}
	r.st.close()
}

// step performs the worker's next op. due is when an open-loop arrival
// should have been sent; zero means now.
func (w *worker) step(ph phase, due time.Time) {
	leave, game := w.ops.next(len(w.held))
	if !leave {
		w.admit(game, ph, due)
	} else if len(w.held) > 0 {
		w.leave(ph)
	}
}

func (w *worker) admit(game int, ph phase, due time.Time) {
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	session, server, err := w.cl.Admit(game)
	done := time.Now()
	c := &w.n[ph]
	c.Admits++
	if err != nil {
		c.classify(err)
	} else {
		c.Admitted++
		w.held = append(w.held, held{session, server, game})
		w.r.seen.mark(session)
	}
	if !w.r.recorded[ph] || c.Admits%w.r.sampleEvery != 0 {
		return
	}
	// A failed or refused admit keeps its place in the distribution and
	// misses every latency limit.
	lat := done.Sub(due)
	if err != nil {
		lat = 1<<31 - 1
	} else if lat <= sloLimit {
		w.sloOK++
	}
	w.admitNS = append(w.admitNS, clampNS(lat))
	if w.r.scorer != nil {
		w.rtNS = append(w.rtNS, clampNS(done.Sub(sent)))
		w.trace(spanAdmit, due, sent, done)
	}
}

func (w *worker) leave(ph phase) {
	h := w.held[0]
	w.held = w.held[1:]
	sent := time.Now()
	err := w.cl.Leave(h.session)
	done := time.Now()
	c := &w.n[ph]
	c.Leaves++
	if err != nil {
		c.classify(err)
	} else {
		c.Left++
	}
	if !w.r.recorded[ph] || c.Leaves%w.r.sampleEvery != 0 {
		return
	}
	w.leaveNS = append(w.leaveNS, clampNS(done.Sub(sent)))
	if w.r.scorer != nil {
		w.trace(spanLeave, sent, sent, done)
	}
}

// parallel runs f once per worker, each on its own goroutine, and waits.
func (r *run) parallel(f func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

// mark starts the measured window: everything reported is a delta from
// here, so warm-up, prefill and stack construction are excluded.
func (r *run) mark() {
	r.markAt = time.Now()
	r.markCPU = cpuSeconds()
	r.markStats = r.st.pipe.Stats()
	r.markReg = r.st.reg.Snapshot()
	if r.scorer != nil {
		r.markBusy = r.scorer.busyNS.Load()
	}
}

// drive runs warm-up then the measured window in the workload's shape.
func (r *run) drive(pc passConfig) {
	r.t0 = time.Now()
	if r.wl.rate > 0 && !pc.inproc {
		r.recorded[phOpen] = true
		open := time.Duration(float64(pc.dur) * openShare)
		r.driveOpen(pc.warm, open)
		r.closedWall = r.burst(phClosed, pc.dur-open)
		return
	}
	r.recorded[phClosed] = true
	r.burst(phWarm, pc.warm)
	r.mark()
	r.closedWall = r.burst(phClosed, pc.dur)
}

// admitted is how many closed-loop admits have succeeded so far.
func (r *run) admitted() (n int) {
	for _, w := range r.workers {
		n += w.n[phClosed].Admitted
	}
	return n
}

// burst runs the workload's closed loop for d, counting its ops under ph,
// and returns the wall time placements_per_s divides by. Plain workloads:
// every worker issues ops back to back. Waves, the flash crowd: every
// producer admits the wave's hot game perWave times, all wait, then every
// producer returns its sessions; only the admit halves count as wall time.
func (r *run) burst(ph phase, d time.Duration) (wall time.Duration) {
	start := time.Now()
	if !r.wl.waves {
		var stop atomic.Bool
		timer := time.AfterFunc(d, func() { stop.Store(true) })
		defer timer.Stop()
		r.parallel(func(w *worker) {
			for !stop.Load() {
				w.step(ph, time.Time{})
			}
		})
		return time.Since(start)
	}
	halfWave := func() {
		r.parallel(func(w *worker) {
			for i := 0; i < perWave; i++ {
				w.step(ph, time.Time{})
			}
		})
	}
	for time.Since(start) < d {
		t := time.Now()
		halfWave()
		wall += time.Since(t)
		// One quality sample per hot game: the first full cycle of the
		// permutation covers the same ten games whatever the seed.
		if r.recorded[ph] && r.quality.Samples < len(r.m.ten) {
			r.sampleQuality()
		}
		halfWave()
	}
	return wall
}

// driveOpen is the open loop: one pacer goroutine walks the merged
// Poisson schedules and hands each arrival to its worker at its due time,
// whether or not the system kept up. The worker sends it as soon as its
// connection is free and counts the latency from the due time, so a stall
// shows up in every arrival queued behind it. One pacer, not one per
// worker: goroutines that spin on Gosched keep every P busy, and a Go
// runtime with no idle P finds socket readiness only in sysmon's 10 ms
// poll.
func (r *run) driveOpen(warm, dur time.Duration) {
	per := r.wl.rate / float64(len(r.workers))
	dues := make([][]time.Duration, len(r.workers))
	for i := range dues {
		dues[i] = schedule(r.seed, i, per, warm+dur)
	}
	feeds := newFeeds(dues)
	pacer := make(chan struct{})
	go func() {
		defer close(pacer)
		marked := false
		pace(r.t0, dues, feeds, func(due, late time.Duration) {
			if !marked && due >= warm {
				marked = true
				r.mark()
			}
			if marked {
				r.lateNS = append(r.lateNS, clampNS(late))
			}
		})
	}()
	end := r.t0.Add(warm + dur)
	r.parallel(func(w *worker) { w.open(feeds[w.id], r.t0, warm, end) })
	<-pacer
}

// newFeeds makes one channel per worker, sized to the worker's whole
// schedule so the pacer never waits for a worker that has fallen behind.
func newFeeds(dues [][]time.Duration) []chan time.Duration {
	feeds := make([]chan time.Duration, len(dues))
	for i, d := range dues {
		feeds[i] = make(chan time.Duration, len(d))
	}
	return feeds
}

// pace walks the workers' schedules merged in time order, hands each
// arrival to its worker's feed at t0+due, and closes the feeds. each sees
// every arrival's due offset and how late the pacer was for it, just
// before the hand-over.
func pace(t0 time.Time, dues [][]time.Duration, feeds []chan time.Duration, each func(due, late time.Duration)) {
	type arrival struct {
		due    time.Duration
		worker int
	}
	var merged []arrival
	for i, ds := range dues {
		for _, d := range ds {
			merged = append(merged, arrival{d, i})
		}
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].due < merged[b].due })
	for _, a := range merged {
		each(a.due, waitUntil(t0.Add(a.due)))
		feeds[a.worker] <- a.due
	}
	for _, f := range feeds {
		close(f)
	}
}

// open sends the arrivals the pacer hands this worker. When the phase has
// ended, arrivals still unsent although they have been due for longer than
// the latency limit are the backlog; a sustained rate leaves none.
func (w *worker) open(feed <-chan time.Duration, t0 time.Time, warm time.Duration, end time.Time) {
	for d := range feed {
		if time.Now().After(end) {
			if end.Sub(t0.Add(d)) > sloLimit {
				w.backlog++
			}
			continue
		}
		ph := phWarm
		if d >= warm {
			ph = phOpen
		}
		w.step(ph, t0.Add(d))
		for len(w.held) > w.r.wl.hold {
			w.step(ph, time.Time{})
		}
	}
}

// qualitySum accumulates ground-truth placement quality over samples.
type qualitySum struct {
	Samples, Sessions, OK int
	FPS                   float64
}

// ledger is every live session grouped by the server its client was told.
func (r *run) ledger() map[int][]int {
	by := map[int][]int{}
	for _, h := range r.st.static {
		by[h.server] = append(by[h.server], h.game)
	}
	for _, w := range r.workers {
		for _, h := range w.held {
			by[h.server] = append(by[h.server], h.game)
		}
	}
	return by
}

// sampleQuality scores the current placements against the simulator's
// noise-free physics. Callers make sure no worker is running.
func (r *run) sampleQuality() {
	r.quality.Samples++
	for _, games := range r.ledger() {
		for _, fps := range r.m.groundTruthFPS(games) {
			r.quality.Sessions++
			r.quality.FPS += fps
			if fps >= r.m.env.Cfg.QoSHigh {
				r.quality.OK++
			}
		}
	}
}

// repResult is one pass's measurements, as the child process reports them.
type repResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	Layer    map[string]float64 `json:"per_layer"`
	Phases   map[string]counts  `json:"phases"`
	// Samples are the sizes behind each percentile; P99Used is the
	// quantile admit_p99_ms really is when the sample was too small.
	Samples   map[string]int `json:"samples"`
	P99Used   float64        `json:"admit_p99_quantile"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	// Valid is false when the open-loop generator ran late: the program's
	// outputs are still right, but latencies counted from the due time
	// include the generator's own delay. Reported as a warning.
	Valid  bool     `json:"valid"`
	Errors []string `json:"errors,omitempty"` // failed output checks
}

// finish stops the clock, runs the output checks and reduces the pass.
func (r *run) finish() *repResult {
	wall := time.Since(r.markAt).Seconds()
	cpu := cpuSeconds() - r.markCPU
	stats := r.st.pipe.Stats()
	reg := r.st.reg.Snapshot()
	if !r.wl.waves {
		r.sampleQuality()
	}
	res := &repResult{
		Workload: r.wl.name, Seed: r.seed,
		EndToEnd: map[string]float64{}, Layer: map[string]float64{},
		Phases: map[string]counts{}, Samples: map[string]int{},
	}
	var admitNS, leaveNS, rtNS [][]int32
	var measured counts
	var sloOK, backlog int
	for _, w := range r.workers {
		for ph := phWarm; ph < numPhases; ph++ {
			c := res.Phases[phaseNames[ph]]
			c.add(w.n[ph])
			res.Phases[phaseNames[ph]] = c
			if ph != phWarm {
				measured.add(w.n[ph])
			}
		}
		admitNS, leaveNS, rtNS = append(admitNS, w.admitNS), append(leaveNS, w.leaveNS), append(rtNS, w.rtNS)
		res.Samples["admit"] += len(w.admitNS)
		res.Samples["leave"] += len(w.leaveNS)
		sloOK += w.sloOK
		backlog += w.backlog
	}
	res.Attempted, res.Failed = measured.attempted(), measured.failed()

	e := res.EndToEnd
	closed := res.Phases[phaseNames[phClosed]]
	e["placements_per_s"] = float64(closed.Admitted) / r.closedWall.Seconds()
	e["admit_p50_ms"], _ = slicedPercentile(admitNS, 0.50)
	e["admit_p99_ms"], res.P99Used = slicedPercentile(admitNS, 0.99)
	e["leave_p90_ms"], _ = slicedPercentile(leaveNS, 0.90)
	e["slo_share"] = float64(sloOK) / float64(max(res.Samples["admit"], 1))
	e["cpu_s_per_kplacement"] = cpu / float64(max(measured.Admitted, 1)) * 1000
	e["qos_ok_share"] = float64(r.quality.OK) / float64(max(r.quality.Sessions, 1))
	e["fps_mean"] = r.quality.FPS / float64(max(r.quality.Sessions, 1))

	l := res.Layer
	l["leave_p99_ms"], _ = slicedPercentile(leaveNS, 0.99)
	rt50, _ := slicedPercentile(rtNS, 0.50)
	l["wire.rt_p50_us"] = rt50 * 1e3
	slices.Sort(r.lateNS)
	late50, _ := tailPercentile(r.lateNS, 0.50)
	late99, _ := tailPercentile(r.lateNS, 0.99)
	l["gen.late_p50_us"], l["gen.late_p99_us"] = us64(time.Duration(late50)), us64(time.Duration(late99))
	l["gen.backlog_end"] = float64(backlog)
	res.Valid = backlog == 0 && time.Duration(late99) <= time.Millisecond
	hist := func(name string) (mean float64) {
		a, b := r.markReg.Histograms[name], reg.Histograms[name]
		if n := b.Count - a.Count; n > 0 {
			mean = (b.Sum - a.Sum) / float64(n)
		}
		return mean
	}
	l["pipeline.batch_size_mean"] = hist("gaugur_admission_batch_size")
	l["pipeline.queue_wait_mean_us"] = hist("gaugur_admission_queue_wait_seconds") * 1e6
	l["pipeline.dispatch_mean_us"] = hist("gaugur_admission_dispatch_seconds") * 1e6
	const rq = "gaugur_admission_rejected_queue_total"
	l["pipeline.rejected_queue"] = float64(reg.Counters[rq] - r.markReg.Counters[rq])
	placed := float64(max(stats.Placed-r.markStats.Placed, 1))
	l["fleet.probes_per_arrival_live"] = float64(stats.ScoreProbes-r.markStats.ScoreProbes) / placed
	l["fleet.scanned_per_arrival_live"] = float64(stats.Scanned-r.markStats.Scanned) / placed
	l["fleet.rejected"] = float64(stats.Rejected - r.markStats.Rejected)
	if r.scorer != nil {
		l["core.busy_share"] = float64(r.scorer.busyNS.Load()-r.markBusy) / 1e9 / wall
	}

	res.Errors = r.check()
	e["rss_peak_mb"] = rssPeakMB()
	return res
}

// check is the output check of one pass. It shuts the front end down, so
// the cluster is quiescent and this goroutine is its only caller.
func (r *run) check() []string {
	var errs []string
	fail := func(format string, a ...any) {
		if len(errs) < 20 {
			errs = append(errs, fmt.Sprintf(format, a...))
		}
	}
	for _, w := range r.workers {
		w.cl.Close()
	}
	if err := r.st.shutdown(); err != nil {
		fail("shutdown: %v", err)
	}
	c := r.st.cluster
	var total counts
	for _, w := range r.workers {
		for ph := range w.n {
			total.add(w.n[ph])
		}
	}
	if d := r.seen.dups.Load(); d != 0 {
		fail("%d session ids handed out twice or out of range", d)
	}
	stats := c.Stats()
	admitted, left := total.Admitted+len(r.st.static), total.Left
	if stats.Placed != admitted || stats.Removed != left || stats.Rejected != total.NoCapacity {
		fail("fleet counted placed %d removed %d rejected %d, clients %d %d %d",
			stats.Placed, stats.Removed, stats.Rejected, admitted, left, total.NoCapacity)
	}
	// The servers the clients were told must be the servers the fleet
	// holds the sessions on, session by session and multiset by multiset.
	ledger := r.ledger()
	occupancy := 0
	for server, games := range c.Snapshot() {
		occupancy += len(games)
		if len(games) > r.wl.fx.maxPerServer {
			fail("server %d holds %d sessions, cap %d", server, len(games), r.wl.fx.maxPerServer)
		}
		want := ledger[server]
		sort.Ints(want)
		if !slices.Equal(games, want) {
			fail("server %d holds %v, clients were told %v", server, games, want)
		}
	}
	if occupancy != admitted-left || stats.Active != occupancy {
		fail("occupancy %d, admitted-left %d, Stats.Active %d", occupancy, admitted-left, stats.Active)
	}
	live := r.st.static
	for _, w := range r.workers {
		live = append(live, w.held...)
	}
	for _, h := range live {
		if server, ok := c.Locate(h.session); !ok || server != h.server {
			fail("session %d: replied server %d, Locate says %d (found %v)", h.session, h.server, server, ok)
		}
		if !c.Remove(h.session) {
			fail("session %d: drain could not remove it", h.session)
		}
	}
	if a := c.Stats().Active; a != 0 {
		fail("%d sessions still active after drain", a)
	}
	return errs
}

// runPass builds a fresh stack, drives one pass and tears it down.
func runPass(m *model, pc passConfig) (*repResult, *run, error) {
	r, err := newRun(m, pc)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	r.drive(pc)
	return r.finish(), r, nil
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB is the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
