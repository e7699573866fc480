package experiments

import (
	"fmt"
	"math"

	"gaugur/internal/core"
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// MaxPerServer is the colocation cap of every churn scenario's fleet: the
// paper considers colocations of fewer than five games.
const MaxPerServer = 4

// Churn sizes a scenario the way the gaugur CLI's flags and the ext-*
// experiments state it: a fleet of Servers, Sessions arrivals offering Load
// of its slots, sessions playing Duration on average, all drawn from Seed.
type Churn struct {
	Servers, Sessions int
	Load, Duration    float64
	Seed              int64
}

// Stream is the Poisson arrival stream over games that offers c.Load of the
// fleet's slots: Load × Servers × MaxPerServer / Duration arrivals per unit
// time, exponential playtimes of mean Duration.
func (c Churn) Stream(games []int) sched.OnlineConfig {
	return sched.OnlineConfig{
		ArrivalRate:  c.Load * float64(c.Servers) * MaxPerServer / c.Duration,
		MeanDuration: c.Duration,
		Sessions:     c.Sessions,
		GameIDs:      games,
		Seed:         c.Seed,
	}
}

// Scenario is one Section 5-style online run, written once: a world (the
// lab, its ground truth and the fleet), an arrival stream and a fault
// schedule. A caller brings the placement policy — a fleet.Config — and what
// it attaches to one run's copy of the stream (an audit sink, a lifecycle,
// the faults); the scenario scores every run the same way. The gaugur
// churn, faults and lifecycle commands bind their flags onto one, and the
// ext-* experiments build their rows from one.
type Scenario struct {
	Lab *core.Lab
	// QoS is the frame-rate floor runs are scored against.
	QoS float64
	// Servers is the fleet size; each server holds MaxPerServer sessions.
	Servers int
	// Stream is the arrival stream every run replays, with the
	// instrumentation (Metrics, Tracer) every run carries.
	Stream sched.OnlineConfig
	// Faults is what Schedule draws from; its Horizon is derived there.
	Faults sim.FaultConfig
	// Perturb scales the ground-truth frame rate of every colocated session
	// (1 = the profiled physics): drifted hardware the model was never
	// trained on. Singletons keep their profiled solo rate.
	Perturb float64
}

// NewScenario is the fault-free churn scenario c describes over lab, on the
// profiled physics.
func NewScenario(lab *core.Lab, qos float64, games []int, c Churn) *Scenario {
	return &Scenario{Lab: lab, QoS: qos, Servers: c.Servers, Stream: c.Stream(games), Perturb: 1}
}

// Eval is the ground truth runs are scored with: the noise-free frame rate
// of every session on a server holding games, colocated ones scaled by
// Perturb.
func (s *Scenario) Eval(games []int) []float64 {
	fps := s.Lab.ExpectedFPS(core.ColocationOf(games))
	if len(games) > 1 && s.Perturb != 1 {
		for i := range fps {
			fps[i] *= s.Perturb
		}
	}
	return fps
}

// SpikeEval is the ground truth on a spiked server: the same physics with
// the noisy neighbor as an extra phantom load vector.
func (s *Scenario) SpikeEval(games []int, extra sim.Vector) []float64 {
	return s.Lab.Server.ExpectedFPSWithNeighbor(s.Lab.Instances(core.ColocationOf(games)), extra)
}

// Greedy is the Section 5.2 cluster over the scenario's fleet, scored by
// score and traced by the stream's tracer.
func (s *Scenario) Greedy(score sched.Scorer) fleet.Config {
	return fleet.Config{NumServers: s.Servers, MaxPerServer: MaxPerServer, Scorer: fleet.ScorerFunc(score), Tracer: s.Stream.Tracer}
}

// LeastLoaded is the interference-blind strawman over the scenario's fleet.
func (s *Scenario) LeastLoaded() fleet.Config {
	return fleet.Config{NumServers: s.Servers, MaxPerServer: MaxPerServer, Mode: fleet.ModeLeastLoaded}
}

// Run drives cfg — the scenario's Stream, or one run's copy of it — once
// through the cluster fc describes, scored by Eval against QoS.
func (s *Scenario) Run(cfg sched.OnlineConfig, fc fleet.Config) (sched.OnlineResult, error) {
	return sched.RunChurn(cfg, fc, s.Eval, s.QoS)
}

// FaultMix is the failure mix of the faults command and ext-faults: crashes
// (mean downtime 2) and pressure spikes (mean length 3) at per-server rates,
// so the pressure scales with the fleet, and prediction dropouts (mean
// length 2) at a fleet-wide rate.
func FaultMix(seed int64, servers int, crash, spike, spikeMag, dropout float64) sim.FaultConfig {
	return sim.FaultConfig{
		Seed:       seed,
		NumServers: servers,
		CrashRate:  crash * float64(servers), CrashDowntime: 2,
		SpikeRate: spike * float64(servers), SpikeDuration: 3, SpikeMagnitude: spikeMag,
		DropoutRate: dropout, DropoutDuration: 2,
	}
}

// FaultSchedule is a generated fault schedule and its tally by kind.
type FaultSchedule struct {
	Events                    []sim.FaultEvent
	Crashes, Spikes, Dropouts int
}

// Schedule draws the scenario's faults over the stream's arrival window —
// the span in which they can still orphan and re-place live sessions. A
// stream that never ends has no such window, so a rate that is not positive
// and finite is an error.
func (s *Scenario) Schedule() (FaultSchedule, error) {
	rate := s.Stream.ArrivalRate
	if !(rate > 0) || math.IsInf(rate, 1) {
		return FaultSchedule{}, fmt.Errorf("experiments: a fault schedule needs a positive, finite arrival rate, not %v", rate)
	}
	cfg := s.Faults
	cfg.Horizon = float64(s.Stream.Sessions) / rate
	fs := FaultSchedule{Events: sim.GenerateFaults(cfg)}
	for _, f := range fs.Events {
		switch f.Kind {
		case sim.FaultCrash:
			fs.Crashes++
		case sim.FaultSpike:
			fs.Spikes++
		case sim.FaultDropout:
			fs.Dropouts++
		}
	}
	return fs, nil
}

// Faulted is one run's copy of the stream under fs: spiked servers are
// scored by SpikeEval; with migrate, crash orphans are re-placed and the QoS
// watchdog moves sessions off servers below the floor for watchdog time,
// without, orphans are dropped.
func (s *Scenario) Faulted(fs FaultSchedule, migrate bool, watchdog float64) sched.OnlineConfig {
	cfg := s.Stream
	cfg.Faults = fs.Events
	cfg.SpikeEval = s.SpikeEval
	cfg.DisableMigration = !migrate
	if migrate {
		cfg.WatchdogWindow = watchdog
	}
	return cfg
}
