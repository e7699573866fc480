package serve

import "gaugur/internal/obs"

// admissionMetrics holds the pipeline's pre-resolved instruments. All
// fields are nil when metrics are disabled (nil-safe instruments, the
// repo-wide contract); nothing here feeds back into admission decisions.
type admissionMetrics struct {
	requests         *obs.Counter
	admitted         *obs.Counter
	leaves           *obs.Counter
	rejectedQueue    *obs.Counter
	rejectedCapacity *obs.Counter
	rejectedDraining *obs.Counter
	batches          *obs.Counter
	queueDepth       *obs.Gauge
	// batchSize distributes coalesced dispatch sizes — the whole point of
	// the pipeline is pushing this toward the kernel's 16-wide chunk.
	batchSize *obs.Histogram
	// queueWait is time from enqueue to dispatch start (the coalescing
	// cost an arrival pays); dispatch is the batch's cluster time. Both
	// are fed from the ops' own stamps (enqNS, dispatchNS).
	queueWait *obs.Histogram
	dispatch  *obs.Histogram
	// latency is end-to-end admission latency measured at the producer,
	// with exemplars: each bucket remembers the trace ID of its last
	// tail-kept observation, so a latency spike in /metrics links straight
	// to a retained trace in /debug/traces.
	latency *obs.Histogram
}

func newAdmissionMetrics(r *obs.Registry) admissionMetrics {
	if r == nil {
		return admissionMetrics{}
	}
	return admissionMetrics{
		requests: r.Counter("gaugur_admission_requests_total",
			"admission ops received (admits and leaves, before queueing)"),
		admitted: r.Counter("gaugur_admission_admitted_total",
			"sessions successfully placed through the pipeline"),
		leaves: r.Counter("gaugur_admission_leaves_total",
			"sessions removed through the pipeline"),
		rejectedQueue: r.Counter("gaugur_admission_rejected_queue_total",
			"requests bounced by a full admission queue (backpressure)"),
		rejectedCapacity: r.Counter("gaugur_admission_rejected_capacity_total",
			"admits refused because every server was saturated"),
		rejectedDraining: r.Counter("gaugur_admission_rejected_draining_total",
			"requests refused during graceful drain"),
		batches: r.Counter("gaugur_admission_batches_total",
			"coalesced admit runs dispatched to the fleet"),
		queueDepth: r.Gauge("gaugur_admission_queue_depth",
			"requests waiting in the admission queue at last dispatch"),
		batchSize: r.Histogram("gaugur_admission_batch_size",
			[]float64{1, 2, 4, 8, 12, 16, 24, 32},
			"arrivals per coalesced dispatch"),
		queueWait: r.Histogram("gaugur_admission_queue_wait_seconds", nil,
			"time a request spent queued before its batch dispatched"),
		dispatch: r.Histogram("gaugur_admission_dispatch_seconds", nil,
			"wall-clock latency of one coalesced batch dispatch"),
		latency: r.Histogram("gaugur_admission_latency_seconds", nil,
			"end-to-end admission latency (queue wait + dispatch), with trace exemplars").
			WithExemplars(),
	}
}
