package main

import (
	"math"
	"slices"
	"time"

	"gaugur/internal/stats"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists exactly these names, units,
// directions and bounds (TestBenchmarkJSONMatchesCode keeps the two in sync), and every
// run emits every one of them for every workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it regressed; also the widest
	// run-to-run spread at which a comparison still resolves. Zero for
	// per-layer metrics, which explain a change and never gate it.
	Bound float64
}

// endToEnd is what a client or an operator of the admission service sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"placements_per_s", "1/s", "higher", 0.25},
	{"admit_p50_ms", "ms", "lower", 0.25},
	{"admit_p99_ms", "ms", "lower", 0.25},
	{"leave_p90_ms", "ms", "lower", 0.25},
	{"slo_share", "share", "higher", 0.05},
	{"cpu_s_per_kplacement", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.15},
	{"qos_ok_share", "share", "higher", 0.15},
	{"fps_mean", "FPS", "higher", 0.10},
}

// perLayer attributes cost to the repo's modules. README.md records which
// end-to-end metric each one should move, on which workload.
var perLayer = []metricDef{
	{Name: "wire_http.svc_us", Unit: "us", Better: "lower"},
	{Name: "wire_http.self_us", Unit: "us", Better: "lower"},
	{Name: "wire_http.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "wire_binary.svc_us", Unit: "us", Better: "lower"},
	{Name: "wire_binary.self_us", Unit: "us", Better: "lower"},
	{Name: "wire_binary.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.rt_p50_us", Unit: "us", Better: "lower"},

	{Name: "pipeline.svc_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.self_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "pipeline.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "pipeline.queue_wait_mean_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.dispatch_mean_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.rejected_queue", Unit: "count", Better: "lower"},
	{Name: "pipeline.lanes2_ratio", Unit: "ratio", Better: "higher"},
	{Name: "leave_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "fleet.place_us_per_arrival", Unit: "us", Better: "lower"},
	{Name: "fleet.remove_us", Unit: "us", Better: "lower"},
	{Name: "fleet.self_us", Unit: "us", Better: "lower"},
	{Name: "fleet.allocs_per_arrival", Unit: "count", Better: "lower"},
	{Name: "fleet.probes_per_arrival", Unit: "count", Better: "lower"},
	{Name: "fleet.scanned_per_arrival", Unit: "count", Better: "lower"},
	{Name: "fleet.cache_misses_per_arrival", Unit: "count", Better: "lower"},
	{Name: "fleet.escapes_per_arrival", Unit: "count", Better: "lower"},
	{Name: "fleet.replay_identical", Unit: "count", Better: "higher"},
	{Name: "fleet.probes_per_arrival_live", Unit: "count", Better: "lower"},
	{Name: "fleet.scanned_per_arrival_live", Unit: "count", Better: "lower"},
	{Name: "fleet.rejected", Unit: "count", Better: "lower"},

	{Name: "core.calls_per_arrival", Unit: "count", Better: "lower"},
	{Name: "core.states_per_arrival", Unit: "count", Better: "lower"},
	{Name: "core.states_per_call", Unit: "count", Better: "higher"},
	{Name: "core.us_per_state", Unit: "us", Better: "lower"},
	{Name: "core.us_per_state_w1", Unit: "us", Better: "lower"},
	{Name: "core.us_per_state_w16", Unit: "us", Better: "lower"},
	{Name: "core.self_us_per_arrival", Unit: "us", Better: "lower"},
	{Name: "core.busy_share", Unit: "share", Better: "lower"},

	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},

	{Name: "profile.catalog_s", Unit: "s", Better: "lower"},
	{Name: "core.collect_s", Unit: "s", Better: "lower"},
	{Name: "core.train_s", Unit: "s", Better: "lower"},
	{Name: "core.compile_s", Unit: "s", Better: "lower"},
	{Name: "core.load_s", Unit: "s", Better: "lower"},

	{Name: "gen.late_p50_us", Unit: "us", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.backlog_end", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// ladderExact are the per-layer counts the sequential ladder must
// reproduce bit for bit, within a run and between runs of one seed.
var ladderExact = []string{
	"fleet.probes_per_arrival", "fleet.scanned_per_arrival",
	"fleet.cache_misses_per_arrival", "fleet.escapes_per_arrival",
	"core.states_per_arrival", "core.calls_per_arrival",
}

// sloLimit is the admission latency limit behind slo_share.
const sloLimit = 10 * time.Millisecond

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile returns the q-quantile (nearest rank) of sorted, falling
// back to the highest percentile that still has minBeyond samples beyond
// it when the sample is too small for q; it reports the quantile it used.
// With minBeyond samples or fewer the tail is unknowable and the median is
// returned.
func tailPercentile(sorted []int32, q float64) (v int32, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if n-1-idx < minBeyond {
		idx = n - 1 - minBeyond
	}
	if idx < 0 {
		idx = n / 2
	}
	return sorted[idx], float64(idx+1) / float64(n)
}

// latencySlices is how many consecutive time slices a pass's latency
// samples are cut into.
const latencySlices = 5

// slicedPercentile is how every latency percentile is reported: each
// worker's samples (kept in time order) are cut into latencySlices
// consecutive chunks, chunk k of every worker together is time slice k,
// and the result is the median over slices of the slice's q-quantile, in
// milliseconds. A stall of the box — this benchmark runs on small shared
// VMs — then moves one slice instead of the whole tail; slo_share still
// counts every sample. used is the lowest quantile any slice fell back to.
func slicedPercentile(workers [][]int32, q float64) (ms, used float64) {
	var perSlice []float64
	used = q
	for k := 0; k < latencySlices; k++ {
		var slice []int32
		for _, w := range workers {
			slice = append(slice, w[k*len(w)/latencySlices:(k+1)*len(w)/latencySlices]...)
		}
		if len(slice) == 0 {
			continue // fewer samples than slices
		}
		slices.Sort(slice)
		v, u := tailPercentile(slice, q)
		perSlice = append(perSlice, float64(v)/1e6)
		used = min(used, u)
	}
	return median(perSlice), used
}

// median is 0 for an empty sample.
func median(xs []float64) float64 {
	m, _ := stats.Quantile(xs, 0.5)
	return m
}

// spread is (max-min)/median, the run-to-run width printed beside every
// median.
func spread(xs []float64) float64 {
	lo, hi, _ := stats.MinMax(xs)
	if m := median(xs); m != 0 {
		return (hi - lo) / math.Abs(m)
	}
	return 0
}

// clampNS stores a duration in 4 bytes; anything past ~2.1s saturates,
// far beyond every latency limit here.
func clampNS(d time.Duration) int32 {
	if d > math.MaxInt32 {
		return math.MaxInt32
	}
	if d < 0 {
		return 0
	}
	return int32(d)
}
