package experiments

import (
	"gaugur/internal/sched"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// ExtFleet drives a flash-crowd arrival stream through the sharded
// dispatch plane at several balancer configurations: the full-scan flat
// baseline (one shard), power-of-k sampling, and the interference-blind
// least-loaded strawman. The workload stream
// (a non-homogeneous Poisson process with a mid-run crowd spike) is
// identical across rows, so differences are pure placement policy.
func ExtFleet(env *Env) (*Table, error) {
	qos := env.Cfg.QoSHigh
	p, err := env.GAugur(qos)
	if err != nil {
		return nil, err
	}
	scorer := fleet.NewPredictorScorer(p)

	servers := env.Cfg.Requests / 8
	if servers < 16 {
		servers = 16
	}
	shards := servers / 8
	if shards < 2 {
		shards = 2
	}
	// Base load fills ~55% of slot capacity; the crowd spike pushes the
	// offered load past saturation so rejection/escape behavior shows up.
	peak := sim.CrowdPeak{At: 10, Duration: 5, Factor: 3.5}
	stream := Churn{Servers: servers, Load: 0.55, Duration: 8, Seed: sim.DeriveSeed(29, "fleet-drive", 0)}.Stream(env.TenGames())
	stream.Peaks = []sim.CrowdPeak{peak}
	stream.Horizon = 24

	// run reports one balancer's admission counters and mean predicted ΔFPS;
	// the nil evaluator leaves realised FPS unscored.
	run := func(shardCount, k int, mode fleet.Mode) (fleet.Stats, float64, error) {
		c, err := fleet.New(fleet.Config{
			NumServers:   servers,
			ShardCount:   shardCount,
			MaxPerServer: MaxPerServer,
			K:            k,
			Seed:         17,
			Scorer:       scorer,
			Mode:         mode,
		})
		if err != nil {
			return fleet.Stats{}, 0, err
		}
		defer c.Close()
		res, err := sched.RunOnline(stream, c, nil, 0)
		return c.Stats(), res.MeanDelta, err
	}

	t := &Table{
		ID:      "ext-fleet",
		Title:   "Sharded fleet dispatch under a flash crowd: k-choices vs. full scan",
		Columns: []string{"balancer", "placed", "rejected", "mean ΔFPS", "escapes"},
	}
	rows := []struct {
		name      string
		shards, k int
		mode      fleet.Mode
	}{
		{"flat greedy (1 shard, full scan)", 1, 1, fleet.ModeGreedy},
		{"sharded greedy, k=2", shards, 2, fleet.ModeGreedy},
		{"sharded least-loaded, k=2", shards, 2, fleet.ModeLeastLoaded},
	}
	for _, r := range rows {
		st, meanDelta, err := run(r.shards, r.k, r.mode)
		if err != nil {
			return nil, err
		}
		// Least-loaded placements carry occupancy, not an FPS delta.
		delta := "-"
		if r.mode == fleet.ModeGreedy {
			delta = f1(meanDelta)
		}
		t.AddRow(r.name, d0(st.Placed), d0(st.Rejected), delta, d0(st.Escapes))
	}
	t.AddNote("%d servers in %d shards; flash crowd at t=%.0f (x%.1f for %.0fs); identical seeded workload per row",
		servers, shards, peak.At, peak.Factor, peak.Duration)
	return t, nil
}
