package sched

import (
	"runtime"
	"testing"

	"gaugur/internal/obs/trace"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// toyEval gives each game 100 FPS solo and subtracts 30 per cohabitant,
// except the pair {1,2}, which is toxic (drops to 10 each).
func toyEval(games []int) []float64 {
	out := make([]float64, len(games))
	has := map[int]bool{}
	for _, g := range games {
		has[g] = true
	}
	toxic := has[1] && has[2]
	for i := range games {
		fps := 100 - 30*float64(len(games)-1)
		if toxic {
			fps = 10
		}
		out[i] = fps
	}
	return out
}

// toyScore is a predicted total FPS matching toyEval exactly (an oracle
// scorer for the greedy policy).
func toyScore(games []int) float64 {
	s := 0.0
	for _, f := range toyEval(games) {
		s += f
	}
	return s
}

// churnCfg is one test run: the churn stream plus the fleet it lands on.
type churnCfg struct {
	OnlineConfig
	NumServers, MaxPerServer int
}

func baseCfg() churnCfg {
	return churnCfg{
		NumServers:   6,
		MaxPerServer: 2,
		OnlineConfig: OnlineConfig{
			ArrivalRate:  2,
			MeanDuration: 3,
			Sessions:     200,
			GameIDs:      []int{1, 2, 3},
			Seed:         1,
		},
	}
}

// runOn drives a fresh single-shard cluster, built from fc at cfg's fleet
// size, through cfg's stream.
func runOn(cfg churnCfg, fc fleet.Config, eval FPSEvaluator, qos float64) (OnlineResult, error) {
	fc.NumServers, fc.MaxPerServer = cfg.NumServers, cfg.MaxPerServer
	return RunChurn(cfg.OnlineConfig, fc, eval, qos)
}

// runGreedy runs the Section 5.2 rule scored by score; tr, when non-nil,
// also traces the cluster's scoring.
func runGreedy(cfg churnCfg, score Scorer, tr *trace.Tracer, eval FPSEvaluator, qos float64) (OnlineResult, error) {
	return runOn(cfg, fleet.Config{Scorer: fleet.ScorerFunc(score), Tracer: tr}, eval, qos)
}

// runLeastLoaded runs the interference-blind strawman.
func runLeastLoaded(cfg churnCfg, eval FPSEvaluator, qos float64) (OnlineResult, error) {
	return runOn(cfg, fleet.Config{Mode: fleet.ModeLeastLoaded}, eval, qos)
}

func TestRunOnlineBasicAccounting(t *testing.T) {
	res, err := runGreedy(baseCfg(), toyScore, nil, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Rejected != 200 {
		t.Errorf("accounting: completed %d + rejected %d != 200", res.Completed, res.Rejected)
	}
	if res.MeanFPS <= 0 || res.MeanFPS > 100 {
		t.Errorf("mean FPS %v out of range", res.MeanFPS)
	}
	if res.ViolationFraction < 0 || res.ViolationFraction > 1 {
		t.Errorf("violation fraction %v out of range", res.ViolationFraction)
	}
	if res.PeakActive <= 0 || res.PeakActive > 12 {
		t.Errorf("peak active %d implausible", res.PeakActive)
	}
}

func TestGreedyAvoidsToxicPairsOnline(t *testing.T) {
	cfg := baseCfg()
	greedy, err := runGreedy(cfg, toyScore, nil, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	blind, err := runLeastLoaded(cfg, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.MeanFPS <= blind.MeanFPS {
		t.Errorf("oracle greedy (%.1f FPS) should beat least-loaded (%.1f FPS)", greedy.MeanFPS, blind.MeanFPS)
	}
	if greedy.ViolationFraction > blind.ViolationFraction {
		t.Errorf("oracle greedy violations (%.3f) should not exceed least-loaded (%.3f)",
			greedy.ViolationFraction, blind.ViolationFraction)
	}
}

func TestRunOnlineDeterministic(t *testing.T) {
	a, err := runLeastLoaded(baseCfg(), toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLeastLoaded(baseCfg(), toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed must reproduce the run: %+v vs %+v", a, b)
	}
}

func TestRunOnlineRejectsWhenFull(t *testing.T) {
	cfg := baseCfg()
	cfg.NumServers = 1
	cfg.MaxPerServer = 1
	cfg.ArrivalRate = 100 // swamp the single slot
	cfg.MeanDuration = 10
	res, err := runLeastLoaded(cfg, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Error("a swamped single-slot fleet must reject arrivals")
	}
}

func TestRunOnlineValidation(t *testing.T) {
	bad := baseCfg()
	bad.NumServers = 0
	if _, err := runLeastLoaded(bad, toyEval, 60); err == nil {
		t.Error("zero servers should fail")
	}
	bad = baseCfg()
	bad.Sessions = 0
	if _, err := runLeastLoaded(bad, toyEval, 60); err == nil {
		t.Error("zero sessions should fail")
	}
	bad = baseCfg()
	bad.ArrivalRate = 0
	if _, err := runLeastLoaded(bad, toyEval, 60); err == nil {
		t.Error("zero arrival rate should fail")
	}
	bad = baseCfg()
	bad.GameIDs = nil
	if _, err := runLeastLoaded(bad, toyEval, 60); err == nil {
		t.Error("empty game mix should fail")
	}
	bad = baseCfg()
	bad.Peaks = []sim.CrowdPeak{{At: 1, Duration: 1, Factor: 0}}
	if _, err := runLeastLoaded(bad, toyEval, 60); err == nil {
		t.Error("a crowd peak that stops time should fail")
	}
	bad = baseCfg()
	bad.Audit = &countingSink{}
	if _, err := runLeastLoaded(bad, nil, 60); err == nil {
		t.Error("an audit sink with no evaluator to observe with should fail")
	}
}

// flashCrowdCfg is a fleet-scale stream in miniature: 200 servers of 4 slots
// in 40 shards at 55% base load, a x2.5 crowd for 5 time units, arrivals up
// to t=24.
func flashCrowdCfg() (OnlineConfig, fleet.Config) {
	return OnlineConfig{
			ArrivalRate:  200 * 4 * 0.55 / 8.0,
			Peaks:        []sim.CrowdPeak{{At: 10, Duration: 5, Factor: 2.5}},
			MeanDuration: 8,
			Horizon:      24,
			GameIDs:      []int{1, 2, 3, 4, 5},
			Seed:         sim.DeriveSeed(29, "fleet-drive", 0),
		}, fleet.Config{
			NumServers: 200, ShardCount: 40, MaxPerServer: 4, K: 2, Seed: 17,
			Scorer: fleet.ScorerFunc(toyScore),
		}
}

// TestRunOnlineMatchesDriveWithoutRejects pins the loop to what the fleet
// package's own fault-free driver — a second event loop, deleted when this
// test arrived — produced on the same stream and cluster at the commit before.
// The two drew (gap, game, hold) per arrival alike until an arrival was
// rejected, which this stream never has.
func TestRunOnlineMatchesDriveWithoutRejects(t *testing.T) {
	cfg, fc := flashCrowdCfg()
	c, err := fleet.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := RunOnline(cfg, c, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	got := []any{st.Placed + st.Rejected, st.Placed, st.Rejected, res.PeakActive, res.MeanDelta, st.Escapes, st.ScoreProbes, st.Scanned, st.CacheMisses}
	want := []any{1709, 1709, 0, 690, 17.197191339964892, 4, 3578, 13119, 3005}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrivals, placed, rejected, peak active, mean ΔFPS, escapes, probes, scanned, misses = %v, the deleted driver had %v", got, want)
		}
	}
	if res.MeanFPS != 0 || res.ViolationFraction != 0 || res.Completed != st.Placed {
		t.Errorf("a nil evaluator scores nothing and every session plays out: %+v", res)
	}
}

// TestRunOnlineFlashCrowd runs crowd peaks, a horizon and a crash schedule
// through the one loop together: the run replays identically at GOMAXPROCS 1
// and 2, admits faster inside the peak than before it, stops admitting at the
// horizon while placed sessions play out, and leaves the cluster sound.
func TestRunOnlineFlashCrowd(t *testing.T) {
	type sample struct {
		at     float64
		placed int
	}
	run := func() (OnlineResult, fleet.Stats, []sample) {
		cfg, fc := flashCrowdCfg()
		cfg.Faults = []sim.FaultEvent{
			{At: 18, Kind: sim.FaultCrash, Server: 3, Duration: 2},
			{At: 18, Kind: sim.FaultCrash, Server: 77, Duration: 2},
		}
		c, err := fleet.New(fc)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var seen []sample
		cfg.Lifecycle = TickerFunc(func(now float64) {
			if n := c.Stats().Placed; len(seen) == 0 || n != seen[len(seen)-1].placed {
				seen = append(seen, sample{now, n})
			}
		})
		res, err := RunOnline(cfg, c, toyEval, 60)
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.CheckInvariants(c); err != nil {
			t.Fatal(err)
		}
		return res, c.Stats(), seen
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res, st, seen := run()
	runtime.GOMAXPROCS(2)
	if res2, st2, _ := run(); res2 != res || st2 != st {
		t.Fatalf("GOMAXPROCS 2 changed the run:\n%+v %+v\nvs\n%+v %+v", res2, st2, res, st)
	}
	if res.Crashes != 2 || res.Migrated == 0 || st.Active != 0 {
		t.Fatalf("both crashes should fire, orphans move, and every session end: %+v %+v", res, st)
	}
	placedBy := func(at float64) int {
		n := 0
		for _, s := range seen {
			if s.at <= at {
				n = s.placed
			}
		}
		return n
	}
	before, during := float64(placedBy(10))/10, float64(placedBy(15)-placedBy(10))/5
	if during < 2*before {
		t.Errorf("x2.5 crowd admitted %.1f per unit time against %.1f before it", during, before)
	}
	last := seen[len(seen)-1]
	if last.at > 24 || last.at < 23 || placedBy(24) != st.Placed {
		t.Errorf("arrivals should run up to the horizon and stop there: last admit at t=%.2f, %d of %d by t=24", last.at, placedBy(24), st.Placed)
	}
}
