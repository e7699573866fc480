package sched

import (
	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
)

// RecoveryBuckets bound the orphan-recovery histogram in simulated time
// units (the churn loop's clock, not wall time).
var RecoveryBuckets = []float64{0.25, 0.5, 1, 2, 4, 8, 16}

// onlineMetrics holds the pre-resolved instruments for one RunOnline call.
// With metrics disabled every field is nil and each call site pays a single
// nil check — the golden snapshot test proves the simulation itself is
// bit-identical either way, since metrics never feed back into state.
type onlineMetrics struct {
	placements *obs.Counter
	rejected   *obs.Counter
	shed       *obs.Counter
	departures *obs.Counter
	migrations *obs.Counter
	dropped    *obs.Counter
	crashes    *obs.Counter
	watchdog   *obs.Counter
	active     *obs.Gauge
	recovery   *obs.Histogram
	meanFPS    *obs.Gauge
	violFrac   *obs.Gauge
	// placeSec brackets each cluster decision with two stamps from now:
	// the tracer's clock, else the registry's.
	placeSec *obs.Histogram
	now      obs.Clock
}

// newOnlineMetrics resolves the online-loop instrument set against r (all
// nil when r is nil).
func newOnlineMetrics(r *obs.Registry, tr *trace.Tracer) onlineMetrics {
	if r == nil {
		return onlineMetrics{}
	}
	return onlineMetrics{
		now: tr.ClockOr(r),
		placements: r.Counter("gaugur_sched_placements_total",
			"sessions placed onto a server (arrivals plus migrations)"),
		rejected: r.Counter("gaugur_sched_rejected_total",
			"arrivals the policy could not place, shed arrivals included"),
		shed: r.Counter("gaugur_sched_shed_total",
			"arrivals rejected by load-shedding admission control"),
		departures: r.Counter("gaugur_sched_departures_total",
			"sessions that ran to their natural end"),
		migrations: r.Counter("gaugur_sched_migrations_total",
			"successful session moves (crash recovery plus watchdog)"),
		dropped: r.Counter("gaugur_sched_dropped_total",
			"sessions lost to faults"),
		crashes: r.Counter("gaugur_sched_crashes_total",
			"server-crash faults applied"),
		watchdog: r.Counter("gaugur_sched_watchdog_fires_total",
			"sustained QoS violations the watchdog acted on"),
		active: r.Gauge("gaugur_sched_active_sessions",
			"currently running sessions"),
		placeSec: r.Histogram("gaugur_sched_place_seconds", nil,
			"wall-clock latency of one policy placement decision"),
		recovery: r.Histogram("gaugur_sched_recovery_time", RecoveryBuckets,
			"simulated delay between a session being orphaned and re-placed"),
		meanFPS: r.Gauge("gaugur_sched_mean_fps",
			"session-time-weighted mean frame rate of the last completed run"),
		violFrac: r.Gauge("gaugur_sched_violation_fraction",
			"fraction of session-time below the QoS floor, last completed run"),
	}
}

// placeStart stamps the start of a cluster decision (0, and no clock read,
// when metrics are off).
func (m *onlineMetrics) placeStart() int64 {
	if m.placeSec == nil {
		return 0
	}
	return m.now()
}

// placeEnd observes the decision that began at start.
func (m *onlineMetrics) placeEnd(start int64) {
	if m.placeSec != nil {
		m.placeSec.Observe(obs.Seconds(start, m.now()))
	}
}
