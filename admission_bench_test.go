package gaugur_test

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"gaugur/internal/obs/flight"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/serve"
	"gaugur/internal/sim"
	"gaugur/internal/stats"
)

const (
	admServers     = 10240
	admShards      = 16
	admK           = 8
	admProducers   = 128
	admPerProducer = 16
)

// admissionStack is one complete admission plane: fleet + coalescing
// pipeline, optionally with the full observability plane (tracer with 1%
// tail sampling) attached. The flight recorder runs in BOTH arms — it is
// always on in production — so a traced-vs-untraced delta isolates span
// collection + tail sampling.
type admissionStack struct {
	cluster *fleet.Cluster
	pipe    *serve.Pipeline
	tracer  *trace.Tracer
}

func newAdmissionStack(b *testing.B, scorer fleet.BatchScorer, window int, traced bool) *admissionStack {
	return newAdmissionStackLanes(b, scorer, window, traced, 1)
}

func newAdmissionStackLanes(b *testing.B, scorer fleet.BatchScorer, window int, traced bool, lanes int) *admissionStack {
	b.Helper()
	rec := flight.New(flight.DefaultCapacity, nil)
	var tracer *trace.Tracer
	if traced {
		tracer = trace.New(trace.Config{
			Seed: sim.DeriveSeed(1, "trace", 0),
			Tail: &trace.TailPolicy{Rate: 0.01},
		})
	}
	c, err := fleet.New(fleet.Config{
		NumServers:   admServers,
		ShardCount:   admShards,
		MaxPerServer: 4,
		K:            admK,
		Seed:         1,
		Scorer:       scorer,
		CacheCap:     256,
		Tracer:       tracer,
		Flight:       rec,
	})
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := serve.NewPipeline(serve.PipelineConfig{
		Cluster:     c,
		Lanes:       lanes,
		BatchWindow: window,
		QueueCap:    1024 * lanes,
		Tracer:      tracer,
		Flight:      rec,
	})
	if err != nil {
		c.Close()
		b.Fatal(err)
	}
	s := &admissionStack{cluster: c, pipe: pipe, tracer: tracer}
	b.Cleanup(func() { pipe.Close(); c.Close() })
	return s
}

// admitCycle drives one full admission wave — admProducers concurrent
// goroutines each admitting admPerProducer sessions — and returns the
// placed session ids. tids supplies client-minted trace identifiers
// (nil/zero for untraced); lats, when non-nil, collects per-admission
// latencies. The caller times the call and drains the sessions afterwards.
func admitCycle(b *testing.B, pipe *serve.Pipeline, game int, tids []uint64, lats *[]time.Duration) [][]int {
	sidCh := make(chan []int, admProducers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < admProducers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sids := make([]int, 0, admPerProducer)
			var local []time.Duration
			if lats != nil {
				local = make([]time.Duration, 0, admPerProducer)
			}
			for j := 0; j < admPerProducer; j++ {
				var tid uint64
				if tids != nil {
					tid = tids[w*admPerProducer+j]
				}
				if lats != nil {
					t0 := time.Now()
					pl, err := pipe.AdmitTraced(game, tid)
					local = append(local, time.Since(t0))
					if err != nil {
						b.Errorf("admit: %v", err)
						return
					}
					sids = append(sids, pl.Session)
					continue
				}
				pl, err := pipe.AdmitTraced(game, tid)
				if err != nil {
					b.Errorf("admit: %v", err)
					return
				}
				sids = append(sids, pl.Session)
			}
			sidCh <- sids
			if lats != nil {
				mu.Lock()
				*lats = append(*lats, local...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(sidCh)
	all := make([][]int, 0, admProducers)
	for sids := range sidCh {
		all = append(all, sids)
	}
	return all
}

// drainCycle removes every session admitted by a cycle — fixture reset
// between iterations, never inside a timed section.
func drainCycle(b *testing.B, c *fleet.Cluster, waves [][]int) {
	for _, sids := range waves {
		for _, sid := range sids {
			if !c.Remove(sid) {
				b.Fatalf("remove: unknown session %d", sid)
			}
		}
	}
}

// benchTraceIDs derives the deterministic client-minted trace identifiers
// one cycle uses — outside any timed section: deriving them is the load
// generator's cost, not the admission plane's.
func benchTraceIDs(seed int64) []uint64 {
	tids := make([]uint64, admProducers*admPerProducer)
	for n := range tids {
		tids[n] = uint64(sim.DeriveSeed(seed, "bench-trace", int64(n)))
	}
	return tids
}

// benchAdmission drives the coalescing admission pipeline in-process (no
// sockets): one iteration is a full place-and-drain cycle and the fleet
// returns to empty. window=16 is the coalescing path (cross-request
// batches fill the 16-wide compiled kernel and share probe results);
// window=1 is the singleton baseline (same pipeline, queue, and threads —
// only the coalescing differs).
//
// CacheCap is deliberately small and identical in both arms: a fleet
// under churn, diverse colocations, or periodic model hot swaps cannot
// absorb scoring into the memo, and that scoring regime — not the
// cache-warm fast path — is what the batch kernel exists for.
//
// traced turns on the full observability plane: a tracer with 1% tail
// sampling and client-minted deterministic trace identifiers propagated
// through every admit, the production `gaugur serve` configuration.
func benchAdmission(b *testing.B, window int, traced bool) {
	env := benchEnv(b)
	p, err := env.GAugur(env.Cfg.QoSHigh)
	if err != nil {
		b.Fatal(err)
	}
	s := newAdmissionStack(b, fleet.NewPredictorScorer(p), window, traced)
	ids := env.TenGames()

	var tids []uint64
	if traced {
		tids = benchTraceIDs(1)
	}
	var lats []time.Duration

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		waves := admitCycle(b, s.pipe, ids[i%len(ids)], tids, &lats)
		// Drain the fleet outside the timer: the departures are fixture
		// reset between iterations, not the admission path under test.
		b.StopTimer()
		drainCycle(b, s.cluster, waves)
		b.StartTimer()
	}
	b.StopTimer()

	arrivals := float64(b.N) * admProducers * admPerProducer
	b.ReportMetric(arrivals/b.Elapsed().Seconds(), "placements/s")
	st := s.cluster.Stats()
	b.ReportMetric(float64(st.ScoreProbes)/arrivals, "probes/arrival")
	b.ReportMetric(float64(st.Scanned)/arrivals, "scanned/arrival")
	b.ReportMetric(float64(st.CacheMisses)/arrivals, "misses/arrival")
	if p50, p99 := stats.LatencyPercentiles(lats); len(lats) > 0 {
		b.ReportMetric(float64(p50.Nanoseconds()), "p50_ns")
		b.ReportMetric(float64(p99.Nanoseconds()), "p99_ns")
	}
	if traced {
		b.ReportMetric(float64(s.tracer.Store().Total()), "traces_kept")
	}
}

// BenchmarkAdmissionPipeline: coalesced batches at full kernel occupancy.
func BenchmarkAdmissionPipeline(b *testing.B) { benchAdmission(b, 16, false) }

// BenchmarkAdmissionSingleton: the same pipeline with coalescing off —
// every arrival is its own dispatch and its own under-filled kernel call.
// The acceptance bar for the coalescing design is Pipeline >= 2x this.
func BenchmarkAdmissionSingleton(b *testing.B) { benchAdmission(b, 1, false) }

// BenchmarkAdmissionTraced: the coalescing path with full request
// observability on — propagated trace ids, span collection, 1% tail
// sampling, exemplars — the absolute-throughput figure.
func BenchmarkAdmissionTraced(b *testing.B) { benchAdmission(b, 16, true) }

// admitCycleSpread is admitCycle with the arrival mix spread across game
// ids: producer w admits games[w%len(games)] throughout. Same-game
// producers still coalesce (game-hash lane affinity routes them to one
// lane), while distinct games fan out across every lane — the workload
// the multi-lane admission plane exists for. Single-game admitCycle
// would hash every arrival onto ONE lane and measure nothing.
func admitCycleSpread(b *testing.B, pipe *serve.Pipeline, games []int) [][]int {
	sidCh := make(chan []int, admProducers)
	var wg sync.WaitGroup
	for w := 0; w < admProducers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			game := games[w%len(games)]
			sids := make([]int, 0, admPerProducer)
			for j := 0; j < admPerProducer; j++ {
				pl, err := pipe.Admit(game)
				if err != nil {
					b.Errorf("admit: %v", err)
					return
				}
				sids = append(sids, pl.Session)
			}
			sidCh <- sids
		}(w)
	}
	wg.Wait()
	close(sidCh)
	all := make([][]int, 0, admProducers)
	for sids := range sidCh {
		all = append(all, sids)
	}
	return all
}

// parallelLanes is the lane count the parallel benchmark runs at:
// half the available cores (at least 2), leaving the other half for the
// 128 producer goroutines and the scorer itself.
func parallelLanes() int {
	lanes := runtime.GOMAXPROCS(0) / 2
	if lanes < 2 {
		lanes = 2
	}
	return lanes
}

// benchAdmissionParallel drives the SAME mixed-game 128-producer workload
// through a lanes-wide admission plane. Both arms (lanes=1 baseline and
// the multi-lane headline) run this identical workload so their
// placements/s ratio isolates the lane fan-out alone. The reported
// maxprocs metric says whether the box has enough cores to exhibit a
// speedup at all.
func benchAdmissionParallel(b *testing.B, lanes int) {
	env := benchEnv(b)
	p, err := env.GAugur(env.Cfg.QoSHigh)
	if err != nil {
		b.Fatal(err)
	}
	s := newAdmissionStackLanes(b, fleet.NewPredictorScorer(p), 16, false, lanes)
	ids := env.TenGames()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		waves := admitCycleSpread(b, s.pipe, ids)
		b.StopTimer()
		drainCycle(b, s.cluster, waves)
		b.StartTimer()
	}
	b.StopTimer()

	arrivals := float64(b.N) * admProducers * admPerProducer
	b.ReportMetric(arrivals/b.Elapsed().Seconds(), "placements/s")
	b.ReportMetric(float64(lanes), "lanes")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
	st := s.cluster.Stats()
	b.ReportMetric(float64(st.ScoreProbes)/arrivals, "probes/arrival")
}

// BenchmarkAdmissionParallel: the multi-lane admission plane — 128
// producers over a 10-game mix, lanes = GOMAXPROCS/2 (min 2), each lane
// its own collector and fleet.Caller. The acceptance bar on a >= 4-core
// box is >= 1.8x BenchmarkAdmissionPipeline placements/s, and >= 1.5x
// over BenchmarkAdmissionParallelBaseline within the same run. Nothing
// enforces either: the layered benchmark's pipeline.lanes2_ratio is the
// measured figure.
func BenchmarkAdmissionParallel(b *testing.B) { benchAdmissionParallel(b, parallelLanes()) }

// BenchmarkAdmissionParallelBaseline: the identical mixed-game workload
// through the single-collector pipeline (lanes=1) — the within-run
// denominator for the parallel speedup, immune to fixture differences
// between this workload and the single-game BenchmarkAdmissionPipeline.
func BenchmarkAdmissionParallelBaseline(b *testing.B) { benchAdmissionParallel(b, 1) }

// BenchmarkAdmissionTracedOverhead measures the cost of the observability
// plane as a PAIRED experiment: two identical admission stacks — one
// traced (1% tail sampling, propagated ids), one not — run alternating
// cycles within the same process, and the reported overhead_pct is the
// ratio of their accumulated wall times. Interleaving means scheduler
// noise, VM steal bursts, and thermal drift hit both arms almost equally,
// so the ratio resolves differences an order of magnitude below what two
// independent benchmark runs can on a shared machine. The acceptance bar
// is overhead_pct < 5, taken as the minimum over -count 3 runs — the
// noise-floor estimate; the layered benchmark reports the same quantity
// as obs.overhead_pct.
func BenchmarkAdmissionTracedOverhead(b *testing.B) {
	env := benchEnv(b)
	p, err := env.GAugur(env.Cfg.QoSHigh)
	if err != nil {
		b.Fatal(err)
	}
	scorer := fleet.NewPredictorScorer(p)
	plain := newAdmissionStack(b, scorer, 16, false)
	traced := newAdmissionStack(b, scorer, 16, true)
	ids := env.TenGames()
	tids := benchTraceIDs(1)

	var plainNS, tracedNS int64
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		game := ids[i%len(ids)]
		// Alternate which arm goes first so slow drift never systematically
		// favors one side.
		order := [2]*admissionStack{plain, traced}
		if i%2 == 1 {
			order[0], order[1] = traced, plain
		}
		var pairPlain, pairTraced int64
		for _, s := range order {
			var cycleTids []uint64
			if s == traced {
				cycleTids = tids
			}
			t0 := time.Now()
			waves := admitCycle(b, s.pipe, game, cycleTids, nil)
			dt := int64(time.Since(t0))
			if s == traced {
				pairTraced = dt
			} else {
				pairPlain = dt
			}
			b.StopTimer()
			drainCycle(b, s.cluster, waves)
			b.StartTimer()
		}
		plainNS += pairPlain
		tracedNS += pairTraced
		if pairPlain > 0 {
			ratios = append(ratios, float64(pairTraced)/float64(pairPlain))
		}
	}
	b.StopTimer()

	// The headline figure is the MEDIAN of per-pair ratios, not the ratio
	// of sums: a single cycle hit by a steal burst or a GC mark phase would
	// otherwise drag the whole run, and the median ignores it.
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		med := ratios[len(ratios)/2]
		if len(ratios)%2 == 0 {
			med = (med + ratios[len(ratios)/2-1]) / 2
		}
		b.ReportMetric((med-1)*100, "overhead_pct")
	}
	arrivals := float64(b.N) * admProducers * admPerProducer
	if tracedNS > 0 {
		b.ReportMetric(arrivals/(float64(tracedNS)/1e9), "traced_placements_per_s")
	}
	if plainNS > 0 {
		b.ReportMetric(arrivals/(float64(plainNS)/1e9), "untraced_placements_per_s")
	}
}
