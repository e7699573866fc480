package fleet

import (
	"fmt"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
)

// fleetMetrics holds the pre-resolved instruments for one Cluster. All
// fields are nil when metrics are disabled (nil-safe instruments, same
// contract as the rest of the repo), and nothing here ever feeds back
// into placement decisions.
type fleetMetrics struct {
	placements *obs.Counter
	rejected   *obs.Counter
	escapes    *obs.Counter
	batches    *obs.Counter
	reprobes   *obs.Counter
	// conflicts and lockedProbes count the one place lanes can fight: a
	// commit that lost the capacity race, and a full-fleet probe repeated
	// under the commit lock.
	conflicts    *obs.Counter
	lockedProbes *obs.Counter
	active       *obs.Gauge
	// decision and batchProbe are fed from the decisions' own stamps
	// (BatchTiming): a decision's StartNS→EndNS, and the batch's fan-out
	// start→its first decision's StartNS.
	decision   *obs.Histogram
	batchProbe *obs.Histogram
	// batchArrivals distributes coalesced batch sizes — full 16-wide
	// batches are the regime the compiled kernel is fastest in, so this
	// histogram is how you see whether the admission front end actually
	// keeps the kernel occupied.
	batchArrivals *obs.Histogram
	// shardSessions carries one labelled gauge per shard so exposition
	// shows the live balance across the fleet.
	shardSessions []*obs.Gauge
}

func newFleetMetrics(r *obs.Registry, shards int) fleetMetrics {
	if r == nil {
		return fleetMetrics{shardSessions: make([]*obs.Gauge, shards)}
	}
	m := fleetMetrics{
		placements: r.Counter("gaugur_fleet_placements_total",
			"sessions placed through the sharded balancer"),
		rejected: r.Counter("gaugur_fleet_rejected_total",
			"arrivals no shard could take, escape hatch included"),
		escapes: r.Counter("gaugur_fleet_escapes_total",
			"full-scan escape hatch activations (all k sampled shards rejected)"),
		batches: r.Counter("gaugur_fleet_batches_total",
			"coalesced placement batches submitted through PlaceBatch"),
		reprobes: r.Counter("gaugur_fleet_batch_reprobes_total",
			"dirty-shard re-probes issued while draining a placement batch"),
		conflicts: r.Counter("gaugur_fleet_commit_conflicts_total",
			"commits that lost the capacity race to another caller and re-probed"),
		lockedProbes: r.Counter("gaugur_fleet_locked_probes_total",
			"full-fleet probes repeated under the commit lock after failed validation"),
		active: r.Gauge("gaugur_fleet_active_sessions",
			"currently placed sessions across all shards"),
		decision: r.Histogram("gaugur_fleet_decision_seconds", nil,
			"wall-clock latency of one balancer placement decision"),
		batchProbe: r.Histogram("gaugur_fleet_batch_probe_seconds", nil,
			"wall-clock latency of one batched cross-shard scoring fan-out"),
		batchArrivals: r.Histogram("gaugur_fleet_batch_arrivals",
			[]float64{1, 2, 4, 8, 12, 16, 24, 32, 64},
			"arrivals per coalesced placement batch"),
		shardSessions: make([]*obs.Gauge, shards),
	}
	for i := range m.shardSessions {
		m.shardSessions[i] = r.Gauge(
			fmt.Sprintf("gaugur_fleet_shard_sessions{shard=%q}", fmt.Sprint(i)),
			"sessions currently placed on this shard")
	}
	return m
}

// Trace records the decision's span tree under root, built from its stamps
// alone: a "place-batch" span over the decision (arrivals: the size of the
// batch it was decided in) with a "score" child up to the commit — to the
// end for a reject — and, when placed, a "commit" child to the end. No-op
// on an inert root or an unstamped decision.
func (r BatchResult) Trace(root *trace.Root, arrivals int) {
	tm := r.Timing
	if !root.Active() || tm.EndNS == 0 {
		return
	}
	pb := root.Child(0, "place-batch", tm.StartNS, tm.EndNS, trace.Int("arrivals", arrivals))
	scoreEnd := tm.CommitNS
	if !r.OK { // rejected: the probe ran to the decision's end
		scoreEnd = tm.EndNS
	}
	root.Child(pb, "score", tm.StartNS, scoreEnd,
		trace.Int("shards", tm.Cands), trace.Int("probes", tm.Probes),
		trace.Bool("escape", tm.Escape))
	if r.OK {
		root.Child(pb, "commit", tm.CommitNS, tm.EndNS,
			trace.Int("shard", r.Shard), trace.Int("server", r.Server),
			trace.Int("session", r.Session))
	}
}
