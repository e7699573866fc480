package experiments

import (
	"time"

	"gaugur/internal/core"
	"gaugur/internal/profile"
	"gaugur/internal/sim"
)

// Overhead reproduces the Section 3.6 cost analysis: offline profiling is
// O(N) in games, training needs a few hundred measured colocations, and
// online prediction is effectively free.
func Overhead(env *Env) (*Table, error) {
	t := &Table{
		ID:      "overhead",
		Title:   "GAugur cost breakdown (Section 3.6)",
		Columns: []string{"stage", "cost", "unit"},
	}

	// Offline profiling: measurements per game.
	k := profile.DefaultK
	perResource := (k + 1) // pressure sweep
	gpuSide := 0
	for r := 0; r < sim.NumResources; r++ {
		if sim.Resource(r).GPUSide() {
			gpuSide++
		}
	}
	measurements := sim.NumResources*perResource + gpuSide*perResource + 2
	t.AddRow("profiling", d0(measurements), "benchmark colocations per game (O(N) total)")

	// Wall-clock to profile one game on the simulator.
	g := env.Catalog.Games[0]
	profiler := &profile.Profiler{Server: env.Server}
	start := time.Now()
	if _, err := profiler.ProfileGame(g); err != nil {
		return nil, err
	}
	t.AddRow("profiling (simulated)", time.Since(start).Round(time.Microsecond).String(), "per game")

	// Training set size and training time.
	trainSet, _ := env.Samples(env.Cfg.QoSHigh)
	start = time.Now()
	if _, err := core.Train(env.Profiles, core.TrainConfig{
		Samples:  trainSet,
		Seed:     1,
		EncoderK: profile.DefaultK,
	}); err != nil {
		return nil, err
	}
	t.AddRow("training (GBRT+GBDT)", time.Since(start).Round(time.Millisecond).String(),
		"once, offline, on "+d0(trainSet.Len())+" samples")

	// Online prediction latency.
	p, err := env.GAugur(env.Cfg.QoSHigh)
	if err != nil {
		return nil, err
	}
	c := core.ColocationOf(env.TenGames()[:3])
	const reps = 2000
	start = time.Now()
	for i := 0; i < reps; i++ {
		p.PredictDegradation(c, 0)
		p.SatisfiesQoS(c, 0)
	}
	per := time.Since(start) / (2 * reps)
	t.AddRow("online prediction", per.Round(time.Microsecond).String(), "per query (RM or CM)")
	t.AddNote("prediction is instantaneous relative to request inter-arrival times: the instantaneity requirement holds")
	return t, nil
}
