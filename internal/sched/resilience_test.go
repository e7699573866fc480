package sched

import (
	"math"
	"strings"
	"testing"

	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// toySpikeEval extends toyEval with noisy-neighbor pressure: each unit of
// spike load costs every session 40 FPS (enough to push sessions under the
// 60-FPS floor used by the tests).
func toySpikeEval(games []int, extra sim.Vector) []float64 {
	out := toyEval(games)
	for i := range out {
		out[i] -= 40 * extra.Sum()
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

func resilientCfg() churnCfg {
	cfg := baseCfg()
	cfg.SpikeEval = toySpikeEval
	return cfg
}

func TestRunOnlineCrashOrphansAndMigrates(t *testing.T) {
	cfg := resilientCfg()
	// A long blackout of server 0 early in the run: sessions there must be
	// orphaned and re-placed (capacity exists: 6 servers at 2 slots, load
	// well under the fleet).
	cfg.Faults = []sim.FaultEvent{
		{At: 5, Kind: sim.FaultCrash, Server: 0, Duration: 20},
		{At: 30, Kind: sim.FaultCrash, Server: 1, Duration: 20},
	}
	res, err := runGreedy(cfg, toyScore, nil, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 2 {
		t.Errorf("crashes applied %d, want 2", res.Crashes)
	}
	if res.Migrated == 0 {
		t.Error("crashes on a loaded fleet should migrate at least one session")
	}
	if res.Completed+res.Rejected+res.Dropped != cfg.Sessions {
		t.Errorf("accounting: completed %d + rejected %d + dropped %d != %d",
			res.Completed, res.Rejected, res.Dropped, cfg.Sessions)
	}
	if res.MeanTimeToRecover < 0 {
		t.Errorf("negative MTTR %v", res.MeanTimeToRecover)
	}
}

// Overlapping crash windows on one server: it stays down until the LAST
// window covering it ends, so the run must equal one with a single window
// spanning their union in everything but the crash count. (On a one-server
// fleet a restore at the first window's end would admit arrivals the union
// run rejects.)
func TestRunOnlineOverlappingCrashWindows(t *testing.T) {
	run := func(faults ...sim.FaultEvent) OnlineResult {
		cfg := churnCfg{NumServers: 1, MaxPerServer: 2, OnlineConfig: OnlineConfig{
			ArrivalRate: 2, MeanDuration: 1, Sessions: 120, GameIDs: []int{3}, Seed: 9,
			Faults: faults, SpikeEval: toySpikeEval,
		}}
		res, err := runLeastLoaded(cfg, toyEval, 60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	overlap := run(
		sim.FaultEvent{At: 5, Kind: sim.FaultCrash, Server: 0, Duration: 10},
		sim.FaultEvent{At: 10, Kind: sim.FaultCrash, Server: 0, Duration: 20},
	)
	union := run(sim.FaultEvent{At: 5, Kind: sim.FaultCrash, Server: 0, Duration: 25})
	if overlap.Crashes != 2 || union.Crashes != 1 {
		t.Fatalf("crashes applied: overlap %d, union %d; want 2 and 1", overlap.Crashes, union.Crashes)
	}
	overlap.Crashes = union.Crashes
	if overlap != union {
		t.Errorf("overlapping windows differ from their union:\n%+v\nvs\n%+v", overlap, union)
	}
	if union.Rejected == 0 || union.Completed == 0 {
		t.Errorf("weak scenario: the outage should reject some arrivals and spare others: %+v", union)
	}
}

// Servers crashing at the same instant are all gone before the first orphan
// is re-placed. Six long sessions sit two per server when servers 0 and 1
// fail together; server 2 has room for all four orphans, so each moves
// exactly once. (Re-placing server 0's orphans while server 1 still looks up
// would send them there — least-loaded, lowest id — only to be evicted again.)
// A zero-length crash of server 2 in the same batch evicts too, and the server
// is back only after the batch: all six orphans wait out one backoff.
func TestRunOnlineSimultaneousCrashes(t *testing.T) {
	run := func(faults ...sim.FaultEvent) OnlineResult {
		cfg := churnCfg{NumServers: 3, MaxPerServer: 6, OnlineConfig: OnlineConfig{
			ArrivalRate: 10, MeanDuration: 1e6, Sessions: 6, GameIDs: []int{3}, Seed: 5,
			Faults: faults, MigrationBackoff: 0.25,
		}}
		res, err := runLeastLoaded(cfg, toyEval, 60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	two := []sim.FaultEvent{
		{At: 10, Kind: sim.FaultCrash, Server: 0, Duration: 5},
		{At: 10, Kind: sim.FaultCrash, Server: 1, Duration: 5},
	}
	if res := run(two...); res.Crashes != 2 || res.Migrated != 4 || res.Dropped != 0 || res.MeanTimeToRecover != 0 {
		t.Errorf("want 2 crashes, 4 sessions moved once each at the crash instant, none dropped: %+v", res)
	}
	three := append(two, sim.FaultEvent{At: 10, Kind: sim.FaultCrash, Server: 2})
	if res := run(three...); res.Crashes != 3 || res.Migrated != 6 || res.Dropped != 0 || res.MeanTimeToRecover != 0.25 {
		t.Errorf("want 3 crashes, all 6 sessions back on server 2 after one backoff: %+v", res)
	}
}

func TestRunOnlineMigrationDisabledDropsOrphans(t *testing.T) {
	cfg := resilientCfg()
	cfg.Faults = []sim.FaultEvent{{At: 10, Kind: sim.FaultCrash, Server: 0, Duration: 5}}
	cfg.DisableMigration = true
	res, err := runLeastLoaded(cfg, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated != 0 {
		t.Errorf("migration disabled but %d sessions migrated", res.Migrated)
	}
	if res.Dropped == 0 {
		t.Error("a crash with migration disabled should drop the orphans")
	}
	if res.Completed+res.Rejected+res.Dropped != cfg.Sessions {
		t.Errorf("accounting mismatch: %+v", res)
	}
}

func TestRunOnlineRetryBackoffAndDrop(t *testing.T) {
	// Single server: a crash orphans everything and there is nowhere to
	// migrate while it is down. With a downtime longer than the full
	// backoff budget, every orphan must be dropped after its retries.
	cfg := churnCfg{NumServers: 1, MaxPerServer: 4, OnlineConfig: OnlineConfig{
		ArrivalRate:  5,
		MeanDuration: 50,
		Sessions:     4,
		GameIDs:      []int{3},
		Seed:         9,
		Faults: []sim.FaultEvent{
			{At: 2, Kind: sim.FaultCrash, Server: 0, Duration: 1000},
		},
		MigrationRetries: 2,
		MigrationBackoff: 0.5,
	}}
	res, err := runLeastLoaded(cfg, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated != 0 {
		t.Errorf("nowhere to migrate, yet %d migrated", res.Migrated)
	}
	if res.Dropped == 0 {
		t.Error("orphans must be dropped once the retry budget is spent")
	}
	if res.Completed+res.Rejected+res.Dropped != cfg.Sessions {
		t.Errorf("accounting mismatch: %+v", res)
	}
}

func TestRunOnlineSpikeRaisesViolations(t *testing.T) {
	cfg := resilientCfg()
	clean, err := runLeastLoaded(cfg, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Blanket the whole fleet with heavy long spikes.
	for s := 0; s < cfg.NumServers; s++ {
		cfg.Faults = append(cfg.Faults, sim.FaultEvent{
			At: 1, Kind: sim.FaultSpike, Server: s, Resource: sim.MemBW, Magnitude: 1.0, Duration: 80,
		})
	}
	spiked, err := runLeastLoaded(cfg, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if spiked.MeanFPS >= clean.MeanFPS {
		t.Errorf("fleet-wide spikes should cost FPS: %v vs %v", spiked.MeanFPS, clean.MeanFPS)
	}
	if spiked.ViolationFraction <= clean.ViolationFraction {
		t.Errorf("fleet-wide spikes should raise violation time: %v vs %v",
			spiked.ViolationFraction, clean.ViolationFraction)
	}
}

func TestRunOnlineSpikeRequiresSpikeEval(t *testing.T) {
	cfg := baseCfg()
	cfg.Faults = []sim.FaultEvent{{At: 1, Kind: sim.FaultSpike, Server: 0, Resource: sim.MemBW, Magnitude: 0.5, Duration: 5}}
	if _, err := runLeastLoaded(cfg, toyEval, 60); err == nil {
		t.Error("spike faults without SpikeEval should fail fast")
	}
	cfg.Faults = []sim.FaultEvent{{At: 1, Kind: sim.FaultCrash, Server: 99, Duration: 5}}
	if _, err := runLeastLoaded(cfg, toyEval, 60); err == nil {
		t.Error("fault targeting an invalid server should fail fast")
	}
}

func TestRunOnlineWatchdogMigratesVictims(t *testing.T) {
	// Spike one server hard so its sessions sit far below the floor; the
	// watchdog must move them somewhere healthy. Without the watchdog the
	// victims are stuck for the spike's whole duration.
	mk := func(watchdog float64) OnlineResult {
		cfg := resilientCfg()
		cfg.WatchdogWindow = watchdog
		cfg.Faults = []sim.FaultEvent{
			{At: 2, Kind: sim.FaultSpike, Server: 0, Resource: sim.MemBW, Magnitude: 2.0, Duration: 60},
			{At: 2, Kind: sim.FaultSpike, Server: 1, Resource: sim.MemBW, Magnitude: 2.0, Duration: 60},
		}
		res, err := runGreedy(cfg, toyScore, nil, toyEval, 60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	without := mk(0)
	with := mk(0.5)
	if with.Migrated == 0 {
		t.Fatal("watchdog should migrate victims off the spiked servers")
	}
	if with.ViolationFraction >= without.ViolationFraction {
		t.Errorf("watchdog should cut violation time: %v (with) vs %v (without)",
			with.ViolationFraction, without.ViolationFraction)
	}
}

func TestRunOnlineLoadSheddingCapsAdmission(t *testing.T) {
	cfg := baseCfg()
	cfg.ArrivalRate = 50 // heavy overload
	cfg.ShedUtilization = 0.5
	res, err := runLeastLoaded(cfg, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Error("an overloaded fleet with shedding on must shed arrivals")
	}
	if res.Shed > res.Rejected {
		t.Errorf("shed (%d) must be included in rejected (%d)", res.Shed, res.Rejected)
	}
	// Threshold 0.5 of 12 slots = 6 running sessions max.
	if res.PeakActive > 6 {
		t.Errorf("peak active %d exceeds the shed ceiling of 6", res.PeakActive)
	}
}

func TestRunOnlineOutageCallback(t *testing.T) {
	cfg := baseCfg()
	var calls []bool
	cfg.Faults = []sim.FaultEvent{
		{At: 5, Kind: sim.FaultDropout, Duration: 10},
		{At: 40, Kind: sim.FaultDropout, Duration: 5},
	}
	cfg.OnOutage = func(down bool) { calls = append(calls, down) }
	if _, err := runLeastLoaded(cfg, toyEval, 60); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false}
	if len(calls) != len(want) {
		t.Fatalf("outage callbacks %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("outage callbacks %v, want %v", calls, want)
		}
	}
}

func TestRunOnlineDeterministicUnderFaults(t *testing.T) {
	mk := func() OnlineResult {
		cfg := resilientCfg()
		cfg.WatchdogWindow = 1
		cfg.ShedUtilization = 0.9
		cfg.Faults = sim.GenerateFaults(sim.FaultConfig{
			Seed: 3, Horizon: 80, NumServers: cfg.NumServers,
			CrashRate: 0.05, CrashDowntime: 5,
			SpikeRate: 0.1, SpikeDuration: 5, SpikeMagnitude: 1.2,
			DropoutRate: 0.02, DropoutDuration: 5,
		})
		res, err := runGreedy(cfg, toyScore, nil, toyEval, 60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("same seed + same fault schedule must reproduce the run:\n%+v\nvs\n%+v", a, b)
	}
	if a.Crashes == 0 {
		t.Error("the generated schedule should contain crashes (weak test otherwise)")
	}
	if a.Completed+a.Rejected+a.Dropped != 200 {
		t.Errorf("accounting mismatch under faults: %+v", a)
	}
}

// TestRunOnlineFaultsAfterLastDeparture ensures fault events scheduled
// beyond the stream's end do not hang or corrupt the run.
func TestRunOnlineFaultsBeyondHorizon(t *testing.T) {
	cfg := resilientCfg()
	cfg.Faults = []sim.FaultEvent{
		{At: 1e9, Kind: sim.FaultCrash, Server: 0, Duration: 10},
	}
	res, err := runLeastLoaded(cfg, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 0 {
		t.Errorf("a crash beyond the horizon should never fire, got %d", res.Crashes)
	}
	if res.Completed+res.Rejected != cfg.Sessions {
		t.Errorf("accounting mismatch: %+v", res)
	}
}

// The cluster is the only holder of what runs where, so the loop cannot
// account for a session it did not place: a cluster that already holds one
// is refused at entry, before anything is driven through it.
func TestRunOnlineRejectsClusterItDisagreesWith(t *testing.T) {
	c, err := fleet.New(fleet.Config{NumServers: 6, MaxPerServer: 2, Mode: fleet.ModeLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Place(3); !ok {
		t.Fatal("setup placement failed")
	}
	_, err = RunOnline(baseCfg().OnlineConfig, c, toyEval, 60)
	if err == nil {
		t.Fatal("a cluster holding a session the driver did not place must error")
	}
	if got := err.Error(); !strings.Contains(got, "empty cluster") {
		t.Errorf("error %q should say the cluster is not empty", got)
	}
	if st := c.Stats(); st.Placed != 1 || st.Rejected != 0 || st.Active != 1 {
		t.Errorf("the refused cluster was driven anyway: %+v", st)
	}
	if _, err := RunOnline(baseCfg().OnlineConfig, nil, toyEval, 60); err == nil {
		t.Error("a nil cluster must error")
	}
}

func TestRunOnlineAllArrivalsRejected(t *testing.T) {
	// A fleet with every server down has nowhere to put anyone.
	cfg := baseCfg()
	c, err := fleet.New(fleet.Config{NumServers: cfg.NumServers, MaxPerServer: cfg.MaxPerServer, Mode: fleet.ModeLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for s := 0; s < cfg.NumServers; s++ {
		c.FailServer(s)
	}
	res, err := RunOnline(cfg.OnlineConfig, c, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != cfg.Sessions || res.Completed != 0 {
		t.Errorf("all-down fleet: rejected %d completed %d, want %d and 0",
			res.Rejected, res.Completed, cfg.Sessions)
	}
	if res.MeanFPS != 0 || res.ViolationFraction != 0 || res.PeakActive != 0 {
		t.Errorf("an empty fleet has no quality to report: %+v", res)
	}
}

func TestRunOnlineNearZeroDurations(t *testing.T) {
	cfg := baseCfg()
	cfg.MeanDuration = 1e-12 // sessions depart essentially instantly
	res, err := runGreedy(cfg, toyScore, nil, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != cfg.Sessions {
		t.Errorf("instant sessions never contend: completed %d, want %d", res.Completed, cfg.Sessions)
	}
	if math.IsNaN(res.MeanFPS) || math.IsNaN(res.ViolationFraction) {
		t.Errorf("zero-length occupancy must not produce NaN metrics: %+v", res)
	}
}

func TestRunOnlineMTTRReflectsBackoff(t *testing.T) {
	// Two servers, capacity 1 each; both full when server 0 crashes. The
	// orphan cannot land anywhere until a departure frees a slot, so its
	// recovery time must be positive (backoff retries did the work).
	cfg := churnCfg{NumServers: 2, MaxPerServer: 1, OnlineConfig: OnlineConfig{
		ArrivalRate:  3,
		MeanDuration: 6,
		Sessions:     40,
		GameIDs:      []int{3},
		Seed:         11,
		Faults: []sim.FaultEvent{
			{At: 4, Kind: sim.FaultCrash, Server: 0, Duration: 2},
		},
		MigrationRetries: 10,
		MigrationBackoff: 0.25,
	}}
	res, err := runLeastLoaded(cfg, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated > 0 && res.MeanTimeToRecover <= 0 {
		t.Errorf("migrations with a blocked fleet should show positive MTTR: %+v", res)
	}
	if res.Migrated == 0 && res.Dropped == 0 {
		t.Error("the crash must orphan someone (weak scenario otherwise)")
	}
	if math.IsNaN(res.MeanFPS) {
		t.Error("NaN mean FPS")
	}
}
