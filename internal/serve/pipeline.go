// Package serve is the network-facing admission front end for the sharded
// fleet dispatcher. Its core is a coalescing pipeline: concurrent arrival
// requests land in a bounded MPSC queue, a collector goroutine drains up
// to a batch window (or a small latency deadline, whichever fires first)
// and submits the whole batch through fleet.PlaceBatch, so the power-of-k
// shard probes and the compiled forest kernel run at full 16-wide
// occupancy instead of one under-filled forest pass per arrival.
//
// The pipeline trades a bounded amount of queueing latency (the batch
// window) for throughput; under light load the window never fills and the
// deadline keeps p99 admission latency flat, while under heavy load the
// queue applies explicit backpressure (ErrQueueFull → HTTP 429) instead
// of collapsing.
//
// The front end scales out across cores as N lanes: arrivals partition
// across per-lane queues by game hash (so same-game arrivals still
// coalesce into shared-probe batches), each lane runs its own collector
// driving a fleet.Caller, and the cluster's commit sequencer linearizes
// the lanes' placements. Lanes=1 — the default — drives the cluster's
// built-in caller, so it places exactly as direct calls on the Cluster do.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gaugur/internal/obs"
	"gaugur/internal/obs/flight"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// Sentinel errors returned by Admit/Leave. The HTTP layer maps them to
// status codes (429, 503, 409, 404, 400).
var (
	// ErrQueueFull: the bounded admission queue is at capacity —
	// backpressure, retry later.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining: the pipeline is shutting down and no longer accepts
	// work.
	ErrDraining = errors.New("serve: draining")
	// ErrNoCapacity: every server in the fleet is saturated.
	ErrNoCapacity = errors.New("serve: no capacity")
	// ErrUnknownSession: Leave named a session the fleet doesn't hold.
	ErrUnknownSession = errors.New("serve: unknown session")
	// ErrUnknownGame: Admit named a game the scorer cannot score.
	ErrUnknownGame = errors.New("serve: unknown game")
)

// PipelineConfig parameterizes the coalescing admission pipeline.
type PipelineConfig struct {
	// Cluster is the fleet dispatch plane; required. With Lanes <= 1 the
	// pipeline drives the cluster's built-in caller (deterministic replay,
	// as long as nothing else calls the Cluster's placement methods while
	// it runs); with Lanes > 1 each lane drives its own fleet.Caller and
	// the cluster's commit sequencer linearizes them.
	Cluster *fleet.Cluster
	// KnownGame, when non-nil, reports whether the cluster's scorer can score
	// a game id. An admit it refuses fails with ErrUnknownGame before it is
	// queued: a scorer asked for a game it has no profile of has no answer to
	// give. Nil admits every id.
	KnownGame func(game int) bool
	// Lanes is how many parallel collector lanes drain the admission
	// queue; <= 1 (the default) is one queue and one collector. Arrivals
	// are partitioned by game hash so same-game arrivals coalesce on one
	// lane; leaves route by session hash; an arrival whose home lane's
	// queue is full spills to the least-loaded lane before rejecting with
	// ErrQueueFull.
	Lanes int
	// BatchWindow is the most arrivals coalesced into one dispatch;
	// <= 0 defaults to 16 — one full compiled-kernel chunk. 1 disables
	// coalescing (singleton submission, the comparison baseline).
	BatchWindow int
	// BatchDelay is how long the collector waits for the window to fill
	// once an admit has opened a batch; <= 0 means "don't wait": drain
	// whatever is queued right now and dispatch. A small deadline
	// (~200µs) trades that much p50 latency for fuller admit batches
	// under moderate load. A leave that opens a batch never waits — leaves
	// are removed one by one, so there is nothing to fill — and dispatches
	// with whatever is queued behind it.
	BatchDelay time.Duration
	// QueueCap bounds the MPSC admission queue; <= 0 defaults to 256.
	// A full queue rejects with ErrQueueFull rather than blocking.
	QueueCap int
	// Metrics and Tracer are nil-safe, same contract as fleet.Config: every
	// stamp an op carries — and every latency histogram and span built from
	// them — is read from the tracer's clock, else the registry's, else not
	// at all.
	Metrics *obs.Registry
	Tracer  *trace.Tracer
	// Flight, when non-nil, receives one event per admission outcome
	// (admit, reject-queue, reject-capacity, reject-draining, leave) plus
	// drain-begin/drain-end — recorded on producer goroutines, never on
	// the collector's hot loop. Every event the pipeline writes is stamped
	// on the pipeline's clock (an outcome event with the op's own end
	// stamp); without a tracer or registry the recorder stamps it itself.
	// The fleet's rare events always carry the recorder's clock, so build
	// the recorder on the tracer's (else the registry's) clock to keep one
	// dump on one time base.
	Flight *flight.Recorder
}

const (
	defaultWindow   = 16
	defaultQueueCap = 256
)

type opKind uint8

const (
	opAdmit opKind = iota
	opLeave
)

// pendingOp is one queued request. Ops are pooled: the submitter gets one
// from the pool, the collector answers on its one-buffered done channel,
// and the submitter returns it after reading — so the warm path allocates
// nothing.
type pendingOp struct {
	kind    opKind
	game    int
	session int
	done    chan opResult

	// Stamps and tracing state. The producer opens the op's trace (root;
	// inert without a tracer, its span buffers kept warm by the pool) and
	// stamps enqNS before enqueueing; the collector only writes raw clock
	// reads (drainNS/dispatchNS/batchSize, and the fleet's decision in res
	// — for a leave, res.Timing brackets the removal). The histograms are
	// fed from the stamps as they land, and every span is recorded from
	// them on the producer goroutine after the result arrives, so span
	// bookkeeping never slows the single-threaded collector.
	traceID    uint64
	root       trace.Root
	enqNS      int64
	drainNS    int64
	dispatchNS int64
	batchSize  int
	res        fleet.BatchResult
}

type opResult struct {
	placement fleet.Placement
	err       error
}

// Pipeline is the coalescing admission pipeline. Safe for concurrent
// submitters; each lane's collector goroutine is the only one talking to
// its fleet caller.
type Pipeline struct {
	cfg    PipelineConfig
	window int
	nLanes int

	lanes []*lane
	pool  sync.Pool

	closed    atomic.Bool
	closeOnce sync.Once
	prod      sync.WaitGroup // in-flight submitters
	done      chan struct{}  // every lane collector exited; cluster quiescent

	met admissionMetrics
	now obs.Clock // every stamp: tracer's, else registry's, else 0
}

// lane is one admission lane: a bounded MPSC queue drained by its own
// collector goroutine, which drives the lane's fleet.Caller.
type lane struct {
	p      *Pipeline
	queue  chan *pendingOp
	depth  atomic.Int64 // queued ops, for the gauge, spill, and Retry-After
	done   chan struct{}
	caller *fleet.Caller

	// Collector-owned scratch, reused across dispatch cycles.
	batch   []*pendingOp
	games   []int
	results []fleet.BatchResult
}

// NewPipeline starts the collector goroutines. Close it to drain.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("serve: PipelineConfig needs a Cluster")
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = defaultWindow
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = defaultQueueCap
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 1
	}
	p := &Pipeline{
		cfg:    cfg,
		window: cfg.BatchWindow,
		nLanes: cfg.Lanes,
		done:   make(chan struct{}),
		met:    newAdmissionMetrics(cfg.Metrics),
		now:    cfg.Tracer.ClockOr(cfg.Metrics),
	}
	// QueueCap bounds the whole pipeline; each lane gets an equal slice so
	// total capacity (and the backpressure point) doesn't scale with Lanes.
	perLane := cfg.QueueCap / cfg.Lanes
	if perLane < 1 {
		perLane = 1
	}
	for i := 0; i < cfg.Lanes; i++ {
		l := &lane{
			p:      p,
			queue:  make(chan *pendingOp, perLane),
			done:   make(chan struct{}),
			caller: cfg.Cluster.Caller(),
		}
		if cfg.Lanes > 1 {
			l.caller = cfg.Cluster.NewCaller()
		}
		p.lanes = append(p.lanes, l)
	}
	p.pool.New = func() any { return &pendingOp{done: make(chan opResult, 1)} }
	for _, l := range p.lanes {
		go l.run()
	}
	return p, nil
}

// Draining reports whether Close has begun.
func (p *Pipeline) Draining() bool { return p.closed.Load() }

// QueueDepth is the number of requests waiting across all admission
// queues.
func (p *Pipeline) QueueDepth() int {
	total := 0
	for _, l := range p.lanes {
		total += int(l.depth.Load())
	}
	return total
}

// Lanes reports the number of collector lanes.
func (p *Pipeline) Lanes() int { return p.nLanes }

// laneFor routes a request to its home lane. Admits hash on game id so
// same-game arrivals land on one lane and keep coalescing into
// shared-probe batches; leaves hash on session id.
func (p *Pipeline) laneFor(key uint64) *lane {
	if p.nLanes == 1 {
		return p.lanes[0]
	}
	return p.lanes[sim.Mix64(key)%uint64(p.nLanes)]
}

// Close drains gracefully: new submissions are refused with ErrDraining,
// in-flight submitters finish enqueueing, every lane's collector flushes
// its queued batches, and only then does the Cluster go quiescent.
// Idempotent; blocks until the drain completes. The Cluster itself is NOT
// closed — the owner that built it closes it (and may read final stats
// first).
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		p.cfg.Flight.Record(flight.Event{Kind: "drain-begin", NS: p.now()})
		p.closed.Store(true)
		p.prod.Wait() // every in-flight submit has enqueued or bailed
		for _, l := range p.lanes {
			close(l.queue) // each collector drains its backlog, then exits
		}
		for _, l := range p.lanes {
			<-l.done
		}
		close(p.done)
		p.cfg.Flight.Record(flight.Event{Kind: "drain-end", NS: p.now()})
	})
	<-p.done
}

// enter registers a submitter; false means the pipeline is draining. The
// Add-then-check order pairs with Close's Store-then-Wait so a submitter
// that slips past the check has provably enqueued before the queue closes.
func (p *Pipeline) enter() bool {
	p.prod.Add(1)
	if p.closed.Load() {
		p.prod.Done()
		return false
	}
	return true
}

// getOp takes a pooled op and starts it: it mints (or adopts) the op's
// root span on the producer goroutine, whose own start timestamp doubles as
// the enqueue stamp, so starting an op costs one clock read whether it is
// traced or not. The root carries no start attributes — finishAdmit and
// finishLeave attach game/session alongside the outcome, and only for
// traces the sampler is keeping, so the dropped bulk never copies one.
func (p *Pipeline) getOp(kind opKind, traceID uint64, name string) *pendingOp {
	op := p.pool.Get().(*pendingOp)
	op.kind = kind
	p.cfg.Tracer.StartRoot(&op.root, traceID, name)
	op.traceID = op.root.TraceID()
	op.enqNS = op.root.StartNS()
	if !op.root.Active() {
		op.enqNS = p.now()
	}
	op.drainNS, op.dispatchNS, op.batchSize = 0, 0, 0
	op.res = fleet.BatchResult{}
	return op
}

// submit enqueues op on its home lane without blocking; a full home
// queue spills to the least-loaded lane, and only when that is also full
// is the op rejected — backpressure, not a wait. Waiting for the result
// DOES block — admission latency is the queue wait plus the batch
// dispatch. The caller still owns op afterwards (it materializes spans
// from the collector's stamps) and must pool it.
func (p *Pipeline) submit(l *lane, op *pendingOp) (opResult, error) {
	if !l.enqueue(op) {
		// Spill: losing game affinity for one arrival beats rejecting it.
		sp := l
		if p.nLanes > 1 {
			for _, cand := range p.lanes {
				if cand.depth.Load() < sp.depth.Load() {
					sp = cand
				}
			}
		}
		if sp == l || !sp.enqueue(op) {
			p.prod.Done()
			p.met.rejectedQueue.Inc()
			return opResult{}, ErrQueueFull
		}
	}
	p.prod.Done()
	return <-op.done, nil
}

// enqueue offers op to this lane's bounded queue; false means full.
func (l *lane) enqueue(op *pendingOp) bool {
	select {
	case l.queue <- op:
		l.depth.Add(1)
		return true
	default:
		return false
	}
}

// Admit requests placement for one session of game. Blocks until the
// coalesced batch containing it is dispatched; returns ErrUnknownGame,
// ErrQueueFull, ErrDraining, or ErrNoCapacity on failure.
func (p *Pipeline) Admit(game int) (fleet.Placement, error) {
	return p.AdmitTraced(game, 0)
}

// AdmitTraced is Admit with a caller-minted trace identifier — the wire
// propagation entry point: the load generator derives the ID from its
// simulation seed, carries it in the X-Gaugur-Trace-Id header or the
// binary protocol's traced-admit op, and the whole server-side admission
// (queue wait, coalescing, fleet placement) is recorded as one trace
// rooted at that identity. A traceID of 0 mints one locally, which is
// what Admit does.
func (p *Pipeline) AdmitTraced(game int, traceID uint64) (fleet.Placement, error) {
	p.met.requests.Inc()
	if p.cfg.KnownGame != nil && !p.cfg.KnownGame(game) {
		return fleet.Placement{}, ErrUnknownGame
	}
	if !p.enter() {
		p.met.rejectedDraining.Inc()
		op := p.getOp(opAdmit, traceID, "admission")
		op.game = game
		p.finishAdmit(op, fleet.Placement{}, ErrDraining)
		p.pool.Put(op)
		return fleet.Placement{}, ErrDraining
	}
	op := p.getOp(opAdmit, traceID, "admission")
	op.game = game
	res, err := p.submit(p.laneFor(uint64(game)), op)
	if err == nil {
		err = res.err
	}
	p.finishAdmit(op, res.placement, err)
	p.pool.Put(op)
	if err != nil {
		return fleet.Placement{}, err
	}
	return res.placement, nil
}

// Leave removes a session. Leaves ride the same queues as admits so each
// collector stays its caller's only driver and ordering is preserved.
func (p *Pipeline) Leave(session int) error {
	return p.LeaveTraced(session, 0)
}

// LeaveTraced is Leave with a caller-minted trace identifier (0 mints
// one locally), mirroring AdmitTraced.
func (p *Pipeline) LeaveTraced(session int, traceID uint64) error {
	p.met.requests.Inc()
	if !p.enter() {
		p.met.rejectedDraining.Inc()
		op := p.getOp(opLeave, traceID, "leave")
		op.session = session
		p.finishLeave(op, ErrDraining)
		p.pool.Put(op)
		return ErrDraining
	}
	op := p.getOp(opLeave, traceID, "leave")
	op.session = session
	res, err := p.submit(p.laneFor(uint64(session)), op)
	if err == nil {
		err = res.err
	}
	p.finishLeave(op, err)
	p.pool.Put(op)
	return err
}

// errOutcome renders an admission error as the trace outcome attribute.
func errOutcome(err error) string {
	switch {
	case err == nil:
		return "placed"
	case errors.Is(err, ErrQueueFull):
		return "queue-full"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrNoCapacity):
		return "no-capacity"
	case errors.Is(err, ErrUnknownSession):
		return "unknown-session"
	default:
		return "error"
	}
}

// finishAdmit runs on the producer goroutine, the op's trace owner, once
// the result is known: it reads the end stamp once and stamps the
// flight-recorder event with it, records the admission's span tree from
// the collector's stamps (queue-wait, coalesce, and the fleet's
// place-batch with score/commit children), force-keeps every non-placed
// trace through tail sampling, ends the root with the outcome, and feeds
// the latency histogram — publishing the trace ID as an exemplar only
// when the trace was actually kept, so exemplars never point at
// sampled-out traces.
func (p *Pipeline) finishAdmit(op *pendingOp, pl fleet.Placement, err error) {
	end := p.now()
	ev := flight.Event{NS: end, Game: op.game, Trace: flight.TraceID(op.traceID)}
	switch {
	case err == nil:
		ev.Kind, ev.Session, ev.Server, ev.Shard = "admit", pl.Session, pl.Server, pl.Shard
	case errors.Is(err, ErrQueueFull):
		ev.Kind = "reject-queue"
	case errors.Is(err, ErrNoCapacity):
		ev.Kind = "reject-capacity"
	default:
		ev.Kind = "reject-draining"
	}
	p.cfg.Flight.Record(ev)

	lat := obs.Seconds(op.enqNS, end)
	if !op.root.Active() {
		p.met.latency.Observe(lat)
		return
	}
	// Peek the tail-sampling decision before recording the child spans:
	// at production rates the bulk of traces is about to be dropped, and
	// their span trees — and even the root's outcome attribute — would be
	// pure wasted work on the producer. The real decision still runs
	// inside EndAt; in the rare race where the slow threshold moves
	// between peek and decision, a kept trace arrives with fewer
	// annotations, which is harmless.
	wk := p.cfg.Tracer.WouldKeep(op.traceID, end-op.enqNS, err != nil)
	if wk {
		op.recordQueueSpans()
		op.res.Trace(&op.root, op.batchSize)
	}
	if err != nil {
		op.root.Keep() // errors and backpressure always survive tail sampling
	}
	var kept bool
	if wk {
		kept = op.root.EndAt(end, trace.Int("game", op.game), trace.String("outcome", errOutcome(err)))
	} else {
		kept = op.root.EndAt(end)
	}
	if kept {
		p.met.latency.ObserveTrace(lat, op.traceID)
	} else {
		p.met.latency.Observe(lat)
	}
}

// recordQueueSpans records an op's queue-wait and coalesce spans from the
// collector's stamps (none for an op that never reached a collector).
func (op *pendingOp) recordQueueSpans() {
	if op.drainNS == 0 {
		return
	}
	// An op enqueued mid-sweep shares the sweep's drain stamp, which can
	// precede its own enqueue by microseconds; clamp so the queue-wait
	// span never runs backwards.
	dr := max(op.drainNS, op.enqNS)
	op.root.Child(0, "queue-wait", op.enqNS, dr)
	op.root.Child(0, "coalesce", dr, op.dispatchNS, trace.Int("batch", op.batchSize))
}

// finishLeave is finishAdmit's departure counterpart.
func (p *Pipeline) finishLeave(op *pendingOp, err error) {
	end := p.now()
	ev := flight.Event{NS: end, Session: op.session, Trace: flight.TraceID(op.traceID)}
	switch {
	case err == nil:
		ev.Kind = "leave"
	case errors.Is(err, ErrUnknownSession):
		ev.Kind = "leave-unknown"
	case errors.Is(err, ErrQueueFull):
		ev.Kind = "reject-queue"
	default:
		ev.Kind = "reject-draining"
	}
	p.cfg.Flight.Record(ev)

	if !op.root.Active() {
		return
	}
	wk := p.cfg.Tracer.WouldKeep(op.traceID, end-op.enqNS, err != nil)
	if wk {
		op.recordQueueSpans()
		if tm := op.res.Timing; tm.EndNS != 0 {
			op.root.Child(0, "remove", tm.StartNS, tm.EndNS)
		}
	}
	if err != nil {
		op.root.Keep()
	}
	if !wk {
		op.root.EndAt(end)
		return
	}
	outcome := "removed"
	if err != nil {
		outcome = errOutcome(err)
	}
	op.root.EndAt(end, trace.Int("session", op.session), trace.String("outcome", outcome))
}

// Stats reads the cluster's counters; the probe-side ones settle at batch
// boundaries, all are exact once the drain has completed.
func (p *Pipeline) Stats() fleet.Stats { return p.cfg.Cluster.Stats() }

// run is a lane's collector: block for the first op, coalesce up to the
// window (bounded by the deadline when configured), dispatch, repeat. A
// batch a leave opens never waits: dispatch runs leaves one by one, so no
// straggler could share its work, and it takes whatever is already queued
// behind it. Exits when the lane's queue is closed AND drained — the
// graceful-drain guarantee, per lane.
func (l *lane) run() {
	defer close(l.done)
	var timer *time.Timer
	if l.p.cfg.BatchDelay > 0 {
		timer = time.NewTimer(l.p.cfg.BatchDelay)
		if !timer.Stop() {
			<-timer.C
		}
	}
	for {
		op, ok := <-l.queue
		if !ok {
			return
		}
		l.depth.Add(-1)
		l.stampDrain(op)
		l.batch = append(l.batch[:0], op)
		if op.kind == opLeave {
			l.coalesce(nil, op.drainNS)
		} else {
			l.coalesce(timer, op.drainNS)
		}
		l.dispatch()
	}
}

// stampDrain marks the instant an op left the queue — one raw clock read,
// the collector's entire share of the queue-wait span (the producer builds
// the span itself later).
func (l *lane) stampDrain(op *pendingOp) { op.drainNS = l.p.now() }

// coalesce fills p.batch up to the window. With no deadline it drains
// only what is already queued (never waits); with one it waits up to
// BatchDelay for stragglers, so light load still forms partial batches
// and heavy load fills the window before the timer fires. sweepNS is the
// first op's drain stamp: the non-blocking sweep empties the queue within
// microseconds, so every op it drains shares that stamp instead of paying
// a clock read each (the deadline path re-stamps per op — its waits are
// real).
func (l *lane) coalesce(timer *time.Timer, sweepNS int64) {
	p := l.p
	if timer == nil {
		for len(l.batch) < p.window {
			select {
			case op, ok := <-l.queue:
				if !ok {
					return
				}
				l.depth.Add(-1)
				op.drainNS = sweepNS
				l.batch = append(l.batch, op)
			default:
				return
			}
		}
		return
	}
	timer.Reset(p.cfg.BatchDelay)
	defer func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}()
	for len(l.batch) < p.window {
		select {
		case op, ok := <-l.queue:
			if !ok {
				return
			}
			l.depth.Add(-1)
			l.stampDrain(op)
			l.batch = append(l.batch, op)
		case <-timer.C:
			return
		}
	}
}

// dispatch runs one coalesced batch against the cluster. Consecutive
// admits form one PlaceBatch call (the full-occupancy path); leaves and
// stats execute singly in arrival order, so batched submission observes
// exactly the sequence a singleton pipeline would. The collector's only
// timing work is stamping the ops — each producer goroutine materializes
// its own admission's span tree, so the per-request traces cost the hot
// loop a handful of clock reads instead of span bookkeeping. One dispatch
// stamp serves the whole batch: every op's queue wait and coalesce span end
// there, and the dispatch histogram runs from it to one end read.
func (l *lane) dispatch() {
	p := l.p
	p.met.queueDepth.Set(float64(p.QueueDepth()))
	dispatchNS := p.now()
	bs := len(l.batch)
	for _, op := range l.batch {
		op.dispatchNS = dispatchNS
		op.batchSize = bs
		p.met.queueWait.Observe(obs.Seconds(op.enqNS, dispatchNS))
	}
	for i := 0; i < len(l.batch); {
		if l.batch[i].kind != opAdmit {
			l.runSingle(l.batch[i])
			i++
			continue
		}
		j := i + 1
		for j < len(l.batch) && l.batch[j].kind == opAdmit {
			j++
		}
		l.runAdmits(l.batch[i:j])
		i = j
	}
	p.met.dispatch.Observe(obs.Seconds(dispatchNS, p.now()))
	// Drop op pointers so pooled ops aren't pinned by the scratch slice.
	clear(l.batch)
	l.batch = l.batch[:0]
}

// runAdmits places one run of consecutive admits through one batch, and
// each op carries its fleet decision — stamps included — home. Each op's
// result is copied into the op BEFORE its done send: the producer frees the
// op back to the pool right after materializing.
func (l *lane) runAdmits(ops []*pendingOp) {
	p := l.p
	l.games = l.games[:0]
	for _, op := range ops {
		l.games = append(l.games, op.game)
	}
	l.results = l.caller.PlaceBatch(l.games, l.results[:0])
	admitted := 0
	for i, op := range ops {
		r := l.results[i]
		op.res = r
		if r.OK {
			admitted++
			op.done <- opResult{placement: r.Placement}
		} else {
			p.met.rejectedCapacity.Inc()
			op.done <- opResult{err: ErrNoCapacity}
		}
	}
	p.met.admitted.Add(int64(admitted))
	p.met.batches.Inc()
	p.met.batchSize.Observe(float64(len(ops)))
}

// runSingle executes one leave op, stamping its removal window for the
// producer's trace.
func (l *lane) runSingle(op *pendingOp) {
	p := l.p
	op.res.Timing.StartNS = p.now()
	removed := l.caller.Remove(op.session)
	op.res.Timing.EndNS = p.now()
	if removed {
		p.met.leaves.Inc()
		op.done <- opResult{}
	} else {
		op.done <- opResult{err: ErrUnknownSession}
	}
}
