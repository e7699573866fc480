package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"gaugur/internal/sim"
)

// workload is one traffic mix. Every worker's op stream is a pure function
// of (seed, worker index): the concurrent passes run the streams side by
// side, the ladder replays their round-robin merge from one goroutine.
type workload struct {
	name, why string
	fx        fixture
	wire      string // "", "binary" or "http"
	producers int    // 0 = one per wire connection
	allGames  bool   // draw from the whole catalog instead of TenGames
	// hold is how many sessions a worker keeps before each admit is
	// followed by leaving its oldest. waves overrides it: every worker
	// admits the wave's hot game perWave times, then returns them all.
	hold    int
	waves   bool
	prefill int     // sessions placed before the pipeline starts
	rate    float64 // open-loop admits/s over all workers; 0 = closed loop only
	// ladder is how many ops the sequential ladder replays: enough for the
	// mix to include leaves, few enough where each op above the fleet
	// waits out a batch delay (~1.2 ms) or a stack costs seconds to fill.
	ladder int
}

const (
	inprocProducers = 128
	perWave         = 16
	// openShare of a wire repetition is open loop, the rest closed loop.
	openShare = 0.7
)

var workloads = []*workload{
	{
		name: "crowd_inproc", fx: fleet10k, producers: inprocProducers, waves: true, ladder: 20000,
		why: "launch-day flash crowd of one hot game, no sockets: lane queue, coalescer and shared shard probes do all the work, core and wire none",
	},
	{
		name: "churn_mixed_inproc", fx: serveDefault, producers: inprocProducers, allGames: true, hold: 4, prefill: 3400, ladder: 1000,
		why: "admits and leaves of all 100 games interleaved at ~95% occupancy, no sockets: leaves split batches, the score cache misses, core carries real weight",
	},
	{
		name: "wire_binary", fx: serveDefault, wire: "binary", hold: 250, rate: 300, ladder: 2000,
		why: "few persistent binary connections at 300 admits/s then back to back: frames, syscalls, hand-offs and the batch delay are the whole cost",
	},
	{
		name: "wire_http", fx: serveDefault, wire: "http", hold: 250, rate: 300, ladder: 2000,
		why: "the same schedule over POST /v1/admit and /v1/leave: paired with wire_binary it isolates JSON and net/http cost",
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// wireConns is C: connections, and worker goroutines, of a wire workload.
// Each connection carries one request at a time, so an arrival waits for
// its connection's previous admit and leave. At two connections that
// client-side queue ran ~45% busy and was most of the tail (p99 between
// 6 and 94 ms from seed to seed); at four it is a minor part.
const wireConns = 4

func (wl *workload) workers() int {
	if wl.producers > 0 {
		return wl.producers
	}
	return wireConns
}

// stream is one worker's deterministic op generator. It reads only how
// many sessions the worker holds, so it yields the same ops whichever
// layer answers them, as long as no admit fails.
type stream struct {
	wl    *workload
	rng   *rand.Rand
	games []int
	hot   []int // waves: the seeded permutation of games
	step  int   // waves: position inside the current wave
	wave  int
}

func (wl *workload) newStream(m *model, seed int64, worker int) *stream {
	s := &stream{wl: wl, games: m.ten}
	if wl.allGames {
		s.games = m.all
	}
	s.rng = rand.New(rand.NewSource(sim.DeriveSeed(seed, "bench-worker", int64(worker))))
	if wl.waves {
		// Every worker derives the same permutation: the wave's hot game
		// is shared.
		s.hot = append([]int(nil), s.games...)
		rand.New(rand.NewSource(sim.DeriveSeed(seed, "bench-hot", 0))).Shuffle(len(s.hot), func(i, j int) {
			s.hot[i], s.hot[j] = s.hot[j], s.hot[i]
		})
	}
	return s
}

// next returns the worker's next op given how many sessions it holds: a
// leave of its oldest session, or an admit of game.
func (s *stream) next(holding int) (leave bool, game int) {
	if s.wl.waves {
		leave = s.step >= perWave
		game = s.hot[s.wave%len(s.hot)]
		if s.step++; s.step == 2*perWave {
			s.step, s.wave = 0, s.wave+1
		}
		return leave, game
	}
	if holding > s.wl.hold {
		return true, 0
	}
	return false, s.games[s.rng.Intn(len(s.games))]
}

// prefillGames is the static background population of the fixture.
func (wl *workload) prefillGames(m *model, seed int64) []int {
	if wl.prefill == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, "bench-prefill", 0)))
	games := make([]int, wl.prefill)
	for i := range games {
		games[i] = m.all[rng.Intn(len(m.all))]
	}
	return games
}

// schedule is one worker's open-loop arrival times, as offsets from the
// start of the pass: a Poisson process of the given rate over dur, a pure
// function of (seed, worker). Independent Poisson workers sum to a Poisson
// stream of the total rate.
func schedule(seed int64, worker int, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, "bench-arrivals", int64(worker))))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// spinMargin is how long before an arrival's due time the pacer stops
// sleeping and starts yielding.
const spinMargin = 300 * time.Microsecond

// waitUntil paces the generator to t and reports how late it woke. It
// sleeps in nanosleep(2), not time.Sleep: an idle Go runtime sleeps in the
// netpoller, whose timeout is whole milliseconds, so its timers fire up to
// a millisecond late, and that lateness would land in every latency
// measured from the due time.
func waitUntil(t time.Time) time.Duration {
	if d := time.Until(t) - spinMargin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return only lengthens the spin
	}
	for {
		if late := time.Since(t); late >= 0 {
			return late
		}
		runtime.Gosched()
	}
}
