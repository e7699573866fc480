package sched

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// Online session churn: the Section 5 experiments place a fixed batch of
// requests, but a production dispatcher faces a stream — sessions arrive,
// play for a while, and leave, and every placement decision must respect
// the games ALREADY running on each server. This simulator drives a
// fleet.Cluster — the one placement engine, greedy or least-loaded by its
// Mode — through such a stream and reports time-averaged quality, which is
// where interference-aware placement pays off most: a bad pairing hurts for
// the whole overlap of two sessions.
//
// The loop is a driver: it owns the event heap, the RNG streams, fault
// injection, shedding, retry/backoff and the result integrals. What runs
// where is the cluster's alone, to decide and to know: after every mutation
// the driver re-reads the server(s) it touched (Cluster.Server) and scores
// what it read.
//
// The loop is also fault-tolerant: an optional sim.FaultEvent schedule
// injects whole-server crashes (Cluster.FailServer evicts the sessions, which
// are re-placed with bounded retry and exponential backoff), noisy-neighbor
// pressure spikes (scored through the real physics via SpikeEval), and
// prediction-pipeline dropouts (surfaced through OnOutage so a fallback
// predictor can trip its circuit breaker). A QoS watchdog migrates the
// worst victim (Cluster.Migrate) off servers that violate the floor for a
// sustained window,
// and load-shedding admission control rejects arrivals outright when the
// live fleet is saturated. With no faults configured and the resilience
// knobs at their zero values, the loop is bit-for-bit identical to the
// fault-free simulator — resilience costs nothing when idle.

// OnlineConfig parameterizes the churn simulation.
type OnlineConfig struct {
	// ArrivalRate is the mean session arrivals per unit time (Poisson).
	ArrivalRate float64
	// Peaks are flash-crowd episodes multiplying ArrivalRate (see
	// sim.FlashCrowd); none leaves the stream stationary.
	Peaks []sim.CrowdPeak
	// MeanDuration is the mean session length (exponential).
	MeanDuration float64
	// Sessions is the total number of arrivals to simulate and Horizon the
	// time after which none arrives; at least one must be set, and arrivals
	// stop at whichever is reached first. Sessions already placed play out.
	Sessions int
	Horizon  float64
	// GameIDs is the request mix; arrivals draw uniformly from it.
	GameIDs []int
	// Seed drives arrivals, durations, and game draws.
	Seed int64

	// Faults is the injected fault schedule (see sim.GenerateFaults). Nil
	// or empty leaves the resilience machinery entirely idle.
	Faults []sim.FaultEvent
	// SpikeEval scores a server's occupants under extra noisy-neighbor
	// load; required when Faults contains pressure spikes.
	SpikeEval func(games []int, extra sim.Vector) []float64
	// MigrationRetries caps the delayed re-placement attempts per orphaned
	// session (after the immediate attempt at crash time) before it counts
	// as dropped; <= 0 defaults to 3.
	MigrationRetries int
	// MigrationBackoff is the delay before the first re-placement retry,
	// doubling on each subsequent attempt; <= 0 defaults to 0.25.
	MigrationBackoff float64
	// DisableMigration drops orphaned sessions immediately instead of
	// re-placing them (the non-resilient strawman).
	DisableMigration bool
	// WatchdogWindow is how long a server must violate the QoS floor
	// continuously before the watchdog migrates its worst victim; 0
	// disables the watchdog.
	WatchdogWindow float64
	// ShedUtilization sheds arrivals (rejecting them without consulting
	// the cluster) when running sessions reach this fraction of the live
	// fleet's slot capacity; 0 disables load shedding.
	ShedUtilization float64
	// OnOutage, if set, is called when a prediction-pipeline dropout
	// begins (true) and ends (false) — the hook a FallbackPredictor's
	// circuit breaker listens on.
	OnOutage func(down bool)

	// Metrics, when non-nil, receives live counters, gauges, and latency
	// histograms for the run (see internal/obs). Metrics never feed back
	// into simulation state: results are bit-identical with or without it.
	Metrics *obs.Registry

	// Tracer, when non-nil, records one trace per scheduling decision
	// (placement, migration, watchdog eviction, shed), built by the loop
	// itself in one reused trace.Root: a placement or migration records
	// the cluster's place-batch -> score/commit spans from the decision's
	// stamps, and the root carries the decision's inputs and outcome.
	// Nothing the loop calls writes spans of its own. The tracer's clock
	// also stamps gaugur_sched_place_seconds when Metrics is set. Like
	// Metrics, tracing never feeds back into simulation state.
	Tracer *trace.Tracer
	// Audit, when non-nil, receives session-lifecycle callbacks (see
	// AuditSink) so a prediction audit log can resolve placement-time
	// predictions against observed frame rates.
	Audit AuditSink
	// Lifecycle, when non-nil, is ticked synchronously once per dispatched
	// event (see LifecycleTicker) so a model-lifecycle manager can retrain,
	// shadow-evaluate, and hot-swap models in lockstep with the simulation.
	// With a nil Lifecycle the loop is bit-identical to previous behavior.
	Lifecycle LifecycleTicker
}

// resilient reports whether any fault-handling machinery is configured.
func (c OnlineConfig) resilient() bool {
	return len(c.Faults) > 0 || c.WatchdogWindow > 0 || c.ShedUtilization > 0
}

// FPSEvaluator returns the actual frame rate of every session on a server
// given its game multiset (the ground-truth oracle the simulator scores
// with; experiments pass lab-backed evaluators). A nil evaluator scores
// nothing: MeanFPS and ViolationFraction stay zero and the watchdog never
// fires — what a fleet-scale run that reads only admission counts wants.
type FPSEvaluator func(games []int) []float64

// OnlineResult summarizes one churn run.
type OnlineResult struct {
	// MeanFPS is the session-time-weighted average frame rate.
	MeanFPS float64
	// ViolationFraction is the fraction of session-time spent below the
	// QoS floor.
	ViolationFraction float64
	// Rejected counts arrivals the cluster could not place (including shed
	// arrivals).
	Rejected int
	// Completed counts sessions that ran to their natural end.
	Completed int
	// PeakActive is the maximum number of concurrent sessions.
	PeakActive int
	// MeanDelta is the mean predicted total-FPS delta of the admitted
	// arrivals' placements — the quantity the greedy rule maximizes.
	MeanDelta float64

	// Migrated counts successful session moves: orphans re-placed after a
	// crash plus victims relocated by the QoS watchdog.
	Migrated int
	// Dropped counts sessions lost to faults: orphaned by a crash and
	// never re-placed within the retry budget, or departing mid-limbo.
	Dropped int
	// Shed counts arrivals rejected by load-shedding admission control
	// (also included in Rejected).
	Shed int
	// Crashes counts server-crash faults applied during the run.
	Crashes int
	// MeanTimeToRecover is the mean delay between a session being
	// orphaned and its successful re-placement (0 when nothing recovered).
	MeanTimeToRecover float64
}

// evKind orders the internal event types.
type evKind int

const (
	evDeparture evKind = iota
	evRetry
	evWatchdog
)

// event is one scheduled simulator event.
type event struct {
	at   float64
	seq  int64
	kind evKind
	sid  int // departure/retry: session id
	srv  int // watchdog: server
	gen  int // watchdog: violation generation at scheduling time
}

// eventHeap orders events by time, FIFO within a tie.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// serverView is the driver's last read of one server with the frame rates it
// evaluated for that read. It is replaced whole and never edited: the audit
// flush needs the colocation as it stood BEFORE the mutation being applied.
type serverView struct {
	residents []fleet.Resident
	fps       []float64 // aligned with residents
}

// session is one admitted request's lifetime state.
type session struct {
	id       int // the simulator's id: what AuditSink sees, stable for life
	csid     int // the cluster's id for the current placement
	game     int
	server   int // -1 while orphaned
	departAt float64
	// orphan bookkeeping
	orphanedAt float64
	retries    int
	done       bool
	// audited marks that the current placement's audit record has been
	// resolved with an observation (see AuditSink.Observed); reset on
	// every re-placement.
	audited bool
}

// RunChurn builds the cluster fc describes, drives it through one churn
// stream (see RunOnline) and closes it.
func RunChurn(cfg OnlineConfig, fc fleet.Config, eval FPSEvaluator, qos float64) (OnlineResult, error) {
	c, err := fleet.New(fc)
	if err != nil {
		return OnlineResult{}, err
	}
	defer c.Close()
	return RunOnline(cfg, c, eval, qos)
}

// RunOnline drives the cluster, which must be empty and driven by nothing
// else meanwhile, through a churn stream and scores the outcome with the
// evaluator against the QoS floor. Fleet size, the per-server cap, the live
// capacity that shedding reads and what each server holds are the cluster's.
// At exit the cluster must pass fleet.CheckInvariants.
func RunOnline(cfg OnlineConfig, cluster *fleet.Cluster, eval FPSEvaluator, qos float64) (OnlineResult, error) {
	if cluster == nil {
		return OnlineResult{}, fmt.Errorf("sched: online needs a cluster to drive")
	}
	if n := cluster.Active(); n != 0 {
		return OnlineResult{}, fmt.Errorf("sched: online needs an empty cluster, this one holds %d sessions", n)
	}
	numServers := cluster.NumServers()
	if (cfg.Sessions <= 0 && cfg.Horizon <= 0) || len(cfg.GameIDs) == 0 {
		return OnlineResult{}, fmt.Errorf("sched: online needs sessions or a horizon, and a game mix")
	}
	crowd := sim.FlashCrowd{Base: cfg.ArrivalRate, Peaks: cfg.Peaks}
	if err := crowd.Validate(); err != nil {
		return OnlineResult{}, fmt.Errorf("sched: online arrivals: %w", err)
	}
	if cfg.MeanDuration <= 0 {
		return OnlineResult{}, fmt.Errorf("sched: online needs a positive mean duration")
	}
	if eval == nil && cfg.Audit != nil {
		return OnlineResult{}, fmt.Errorf("sched: an audit sink needs an evaluator to observe with")
	}
	migRetries := cfg.MigrationRetries
	if migRetries <= 0 {
		migRetries = 3
	}
	migBackoff := cfg.MigrationBackoff
	if migBackoff <= 0 {
		migBackoff = 0.25
	}

	var inj *sim.Injector
	if len(cfg.Faults) > 0 {
		for _, ev := range cfg.Faults {
			if ev.Kind == sim.FaultSpike && cfg.SpikeEval == nil {
				return OnlineResult{}, fmt.Errorf("sched: fault schedule contains pressure spikes but SpikeEval is nil")
			}
			if (ev.Kind == sim.FaultCrash || ev.Kind == sim.FaultSpike) && (ev.Server < 0 || ev.Server >= numServers) {
				return OnlineResult{}, fmt.Errorf("sched: fault targets invalid server %d", ev.Server)
			}
		}
		inj = sim.NewInjector(cfg.Faults)
	}
	watchdogOn := cfg.WatchdogWindow > 0

	om := newOnlineMetrics(cfg.Metrics, cfg.Tracer)
	tr := cfg.Tracer    // nil-safe: every method on a nil Tracer is a no-op
	var root trace.Root // one decision's trace at a time, buffers reused
	// Every decision is a batch of one, so its stamps come back with it.
	dst := make([]fleet.BatchResult, 1)

	rng := rand.New(rand.NewSource(cfg.Seed))
	world := make([]serverView, numServers)
	placed := map[int]*session{} // by cluster session id

	var events eventHeap
	heap.Init(&events)
	var seq int64
	push := func(e event) {
		e.seq = seq
		seq++
		heap.Push(&events, e)
	}

	var res OnlineResult
	now := 0.0
	var fpsIntegral, violIntegral, timeIntegral float64
	var recoverSum, deltaSum float64
	recoverN := 0
	active := 0
	sessions := make([]*session, 0, cfg.Sessions)

	// Watchdog state: per-server "currently violating" flag with a
	// generation counter to invalidate stale timer events.
	var violating []bool
	var violGen []int
	if watchdogOn {
		violating = make([]bool, numServers)
		violGen = make([]int, numServers)
	}

	updateViolation := func(s int) {
		v := false
		for _, f := range world[s].fps {
			if f < qos {
				v = true
				break
			}
		}
		if v == violating[s] {
			return
		}
		violating[s] = v
		violGen[s]++
		if v {
			push(event{at: now + cfg.WatchdogWindow, kind: evWatchdog, srv: s, gen: violGen[s]})
		}
	}

	// refresh re-reads server s from the cluster, evaluates what it now
	// holds and returns its games.
	refresh := func(s int) []int {
		v := serverView{residents: cluster.Server(s)}
		games := make([]int, len(v.residents))
		for i, r := range v.residents {
			games[i] = r.Game
		}
		switch {
		case len(games) == 0 || eval == nil:
		case inj != nil && inj.SpikeActive(s):
			v.fps = cfg.SpikeEval(games, inj.SpikeLoad(s))
		default:
			v.fps = eval(games)
		}
		world[s] = v
		if watchdogOn {
			updateViolation(s)
		}
		return games
	}
	accumulate := func(dt float64) {
		if dt <= 0 || active == 0 || eval == nil {
			return
		}
		var sum float64
		var viol int
		for s := range world {
			for _, f := range world[s].fps {
				sum += f
				if f < qos {
					viol++
				}
			}
		}
		fpsIntegral += sum * dt
		violIntegral += float64(viol) * dt
		timeIntegral += float64(active) * dt
	}

	// flushObservations resolves the audit record of every not-yet-observed
	// session on server s against the frame rate it was running at in the
	// driver's last read. It is called after the cluster has changed the
	// server's colocation (an arrival joined, a session left, a crash) and
	// before the driver re-reads it, so each record's observation is of the
	// colocation it predicted — ground truth for the decision,
	// uncontaminated by later churn.
	flushObservations := func(s int) {
		if cfg.Audit == nil {
			return
		}
		for i, r := range world[s].residents {
			if sess := placed[r.Session]; !sess.audited {
				sess.audited = true
				cfg.Audit.Observed(sess.id, world[s].fps[i])
			}
		}
	}

	// place books sess, which the cluster has put on server, and re-reads it.
	place := func(sess *session, server int) {
		flushObservations(server)
		placed[sess.csid] = sess
		sess.server = server
		games := refresh(server)
		active++
		if active > res.PeakActive {
			res.PeakActive = active
		}
		om.placements.Inc()
		om.active.Set(float64(active))
		if cfg.Audit != nil {
			cfg.Audit.Placed(sess.id, sess.game, games)
			sess.audited = false
		}
	}
	// dropSession marks sess lost to faults and notifies the audit sink.
	dropSession := func(sess *session) {
		sess.done = true
		res.Dropped++
		om.dropped.Inc()
		if cfg.Audit != nil {
			cfg.Audit.Dropped(sess.id)
		}
	}
	// unplace books that the cluster has taken sess off its server, without
	// completing it.
	unplace := func(sess *session) {
		s := sess.server
		flushObservations(s)
		delete(placed, sess.csid)
		sess.server = -1
		refresh(s)
		active--
		om.active.Set(float64(active))
	}

	// tryMigrate attempts to re-place an orphan, scheduling a backoff
	// retry or dropping it when the budget is exhausted.
	tryMigrate := func(sess *session) {
		if sess.done || sess.server >= 0 {
			return
		}
		attempt := sess.retries
		tr.StartRoot(&root, 0, "migration")
		t0 := om.placeStart()
		dst = cluster.PlaceBatch([]int{sess.game}, dst[:0])
		om.placeEnd(t0)
		dst[0].Trace(&root, 1)
		if pl, ok := dst[0].Placement, dst[0].OK; ok {
			sess.csid = pl.Session
			place(sess, pl.Server)
			res.Migrated++
			om.migrations.Inc()
			recoverSum += now - sess.orphanedAt
			recoverN++
			om.recovery.Observe(now - sess.orphanedAt)
			root.End(trace.Int("session", sess.id), trace.Int("game", sess.game), trace.Int("attempt", attempt),
				trace.String("outcome", "migrated"), trace.Int("server", pl.Server))
			return
		}
		if sess.retries >= migRetries {
			dropSession(sess)
			root.End(trace.Int("session", sess.id), trace.Int("game", sess.game), trace.Int("attempt", attempt),
				trace.String("outcome", "dropped"))
			return
		}
		sess.retries++
		delay := migBackoff * math.Pow(2, float64(sess.retries-1))
		push(event{at: now + delay, kind: evRetry, sid: sess.id})
		root.End(trace.Int("session", sess.id), trace.Int("game", sess.game), trace.Int("attempt", attempt),
			trace.String("outcome", "retry"))
	}

	// crash starts the migration of the sessions the cluster evicted when
	// server s failed.
	crash := func(s int, evicted []fleet.Resident) {
		res.Crashes++
		om.crashes.Inc()
		flushObservations(s)
		world[s] = serverView{}
		if watchdogOn && violating[s] {
			violating[s] = false
			violGen[s]++
		}
		active -= len(evicted)
		om.active.Set(float64(active))
		for _, e := range evicted {
			sess := placed[e.Session]
			delete(placed, e.Session)
			sess.server = -1
			sess.orphanedAt = now
			sess.retries = 0
			if cfg.DisableMigration {
				dropSession(sess)
				continue
			}
			tryMigrate(sess)
		}
	}

	// handleTransition applies one fault state change; evicted is what the
	// cluster took off the server when the transition starts a crash.
	handleTransition := func(tr sim.FaultTransition, evicted []fleet.Resident) {
		switch tr.Event.Kind {
		case sim.FaultCrash:
			if tr.Started {
				crash(tr.Event.Server, evicted)
				return
			}
			// The server returns empty once no overlapping crash window
			// still covers it; nothing to recompute.
			if !inj.ServerDown(tr.Event.Server) {
				cluster.RestoreServer(tr.Event.Server)
			}
		case sim.FaultSpike:
			if !(inj != nil && inj.ServerDown(tr.Event.Server)) {
				refresh(tr.Event.Server)
			}
		case sim.FaultDropout:
			if cfg.OnOutage != nil {
				cfg.OnOutage(tr.Started)
			}
		}
	}

	nextArrival := crowd.Next(now, rng)
	arrived := 0
	arriving := func() bool {
		return (cfg.Sessions <= 0 || arrived < cfg.Sessions) && (cfg.Horizon <= 0 || nextArrival <= cfg.Horizon)
	}
	for arriving() || events.Len() > 0 {
		// Lifecycle tick: runs before the next event is even selected, so a
		// hot swap lands between events — never mid-decision.
		if cfg.Lifecycle != nil {
			cfg.Lifecycle.Tick(now)
		}

		// Next event: the earliest of pending internal events, the next
		// arrival, and the next fault transition. Ties: internal events
		// beat arrivals (matching the fault-free loop), fault transitions
		// beat both.
		const inf = math.MaxFloat64
		eventAt := inf
		takeHeap := false
		if arriving() {
			eventAt = nextArrival
		}
		if events.Len() > 0 && events[0].at <= eventAt {
			eventAt = events[0].at
			takeHeap = true
		}
		takeFault := false
		if inj != nil {
			if fa, ok := inj.NextChange(); ok && fa <= eventAt {
				eventAt = fa
				takeFault = true
			}
		}
		if eventAt == inf {
			break
		}
		accumulate(eventAt - now)
		now = eventAt

		if takeFault {
			// Every server that fails at this instant leaves the cluster before
			// any orphan is re-placed, so none lands on a server about to be
			// wiped in the same batch.
			trs := inj.AdvanceTo(now)
			evicted := make([][]fleet.Resident, len(trs))
			for i, tr := range trs {
				if tr.Event.Kind == sim.FaultCrash && tr.Started {
					evicted[i] = cluster.FailServer(tr.Event.Server)
				}
			}
			for i, tr := range trs {
				handleTransition(tr, evicted[i])
			}
			continue
		}

		if takeHeap {
			e := heap.Pop(&events).(event)
			switch e.kind {
			case evDeparture:
				sess := sessions[e.sid]
				if sess.done {
					break
				}
				if sess.server < 0 {
					// Departed while orphaned: the playtime is gone.
					dropSession(sess)
					break
				}
				if !cluster.Remove(sess.csid) {
					return res, fmt.Errorf("sched: departing session %d is unknown to the cluster", sess.id)
				}
				unplace(sess)
				sess.done = true
				res.Completed++
				om.departures.Inc()
			case evRetry:
				tryMigrate(sessions[e.sid])
			case evWatchdog:
				s := e.srv
				if !watchdogOn || !violating[s] || e.gen != violGen[s] {
					break
				}
				// Sustained violation: migrate the worst victim.
				worst, worstFPS := -1, math.MaxFloat64
				for i, f := range world[s].fps {
					if f < worstFPS {
						worst, worstFPS = i, f
					}
				}
				om.watchdog.Inc()
				if worst >= 0 {
					victim := placed[world[s].residents[worst].Session]
					tr.StartRoot(&root, 0, "watchdog")
					t0 := om.placeStart()
					target, ok := cluster.Migrate(victim.csid)
					om.placeEnd(t0)
					if ok {
						unplace(victim)
						place(victim, target)
						res.Migrated++
						om.migrations.Inc()
						root.End(trace.Int("server", s), trace.Int("session", victim.id), trace.Float("victim_fps", worstFPS),
							trace.String("outcome", "migrated"), trace.Int("target", target))
					} else {
						root.End(trace.Int("server", s), trace.Int("session", victim.id), trace.Float("victim_fps", worstFPS),
							trace.String("outcome", "no-target"))
					}
				}
				// Re-arm: if the server still violates, check again a
				// window from now.
				if violating[s] {
					push(event{at: now + cfg.WatchdogWindow, kind: evWatchdog, srv: s, gen: violGen[s]})
				}
			}
			continue
		}

		// Arrival.
		game := cfg.GameIDs[rng.Intn(len(cfg.GameIDs))]
		if cfg.ShedUtilization > 0 {
			if capacity := cluster.Capacity(); capacity == 0 || float64(active) >= cfg.ShedUtilization*float64(capacity) {
				tr.StartRoot(&root, 0, "shed")
				res.Rejected++
				res.Shed++
				om.rejected.Inc()
				om.shed.Inc()
				arrived++
				nextArrival = crowd.Next(now, rng)
				root.End(trace.Int("game", game), trace.Int("active", active), trace.Int("capacity", capacity))
				continue
			}
		}
		tr.StartRoot(&root, 0, "placement")
		t0 := om.placeStart()
		dst = cluster.PlaceBatch([]int{game}, dst[:0])
		om.placeEnd(t0)
		dst[0].Trace(&root, 1)
		if pl, ok := dst[0].Placement, dst[0].OK; ok {
			sess := &session{id: len(sessions), csid: pl.Session, game: game, server: -1}
			sessions = append(sessions, sess)
			place(sess, pl.Server)
			deltaSum += pl.Delta
			dur := rng.ExpFloat64() * cfg.MeanDuration
			sess.departAt = now + dur
			push(event{at: sess.departAt, kind: evDeparture, sid: sess.id})
			root.End(trace.Int("game", game),
				trace.String("outcome", "placed"),
				trace.Int("server", pl.Server),
				trace.Int("session", sess.id),
			)
		} else {
			res.Rejected++
			om.rejected.Inc()
			root.End(trace.Int("game", game), trace.String("outcome", "rejected"))
		}
		arrived++
		nextArrival = crowd.Next(now, rng)
	}

	if timeIntegral > 0 {
		res.MeanFPS = fpsIntegral / timeIntegral
		res.ViolationFraction = violIntegral / timeIntegral
	}
	om.meanFPS.Set(res.MeanFPS)
	om.violFrac.Set(res.ViolationFraction)
	if recoverN > 0 {
		res.MeanTimeToRecover = recoverSum / float64(recoverN)
	}
	if len(sessions) > 0 {
		res.MeanDelta = deltaSum / float64(len(sessions))
	}
	if math.IsNaN(res.MeanFPS) {
		return res, fmt.Errorf("sched: online produced NaN metrics")
	}
	if err := fleet.CheckInvariants(cluster); err != nil {
		return res, fmt.Errorf("sched: cluster invariants broken after the run: %w", err)
	}
	return res, nil
}
