package sched

import (
	"testing"

	"gaugur/internal/obs/trace"
	"gaugur/internal/sched/fleet"
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
}
