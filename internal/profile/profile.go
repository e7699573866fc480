// Package profile implements GAugur's offline contention-feature profiling
// (Section 3.2): for every game it measures the sensitivity curve on each
// shared resource by colocating the game with that resource's tunable
// pressure benchmark, and the intensity as the benchmark's average
// slowdown. Profiling runs at two resolutions and the resolution laws
// (Observations 6-8, Equation 2) interpolate everything else, so the cost
// stays linear in the number of games.
package profile

import (
	"fmt"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sim"
	"gaugur/internal/stats"
)

// DefaultK is the paper's pressure sampling granularity (k = 10 gives the
// grid {0, 0.1, ..., 1.0}).
const DefaultK = 10

// GameProfile holds everything GAugur may legally know about a game: only
// measured quantities, never the simulator's hidden spec.
type GameProfile struct {
	GameID int
	Name   string

	// K is the pressure sampling granularity; each sensitivity curve has
	// K+1 points.
	K int

	// Sensitivity[r] is the measured degradation curve S^A_r: the
	// retained-FPS fraction at pressures {0, 1/K, ..., 1}. Observation 6
	// makes it resolution-independent, so it is profiled once.
	Sensitivity [sim.NumResources][]float64

	// IntensityBase[r] is the measured intensity I^A_r at ResLo, and
	// IntensitySlope[r] its per-megapixel slope derived from the ResHi
	// measurement. CPU-side slopes are pinned to zero (Observation 7);
	// GPU-side intensities interpolate linearly (Observation 8).
	IntensityBase  sim.Vector
	IntensitySlope sim.Vector

	// FPSSlopeA and FPSIntercptB are the fitted Equation (2) parameters:
	// soloFPS(res) = -A*MPixels + B, from solo runs at two resolutions.
	FPSSlopeA    float64
	FPSIntercptB float64

	// DemandBase and DemandSlope interpolate the solo resource-
	// utilization vector the same way; the VBP baseline consumes these.
	DemandBase  sim.Vector
	DemandSlope sim.Vector

	// CPUMem and GPUMem are the observed memory demands.
	CPUMem, GPUMem float64

	// ResLo and ResHi are the two profiled resolutions.
	ResLo, ResHi sim.Resolution
}

// SoloFPS returns the Equation (2) estimate of the solo frame rate at res.
func (p *GameProfile) SoloFPS(res sim.Resolution) float64 {
	fps := -p.FPSSlopeA*res.MPixels() + p.FPSIntercptB
	if fps < 1 {
		return 1
	}
	return fps
}

// Intensity returns the per-resource intensity vector interpolated to res.
func (p *GameProfile) Intensity(res sim.Resolution) sim.Vector {
	dm := res.MPixels() - p.ResLo.MPixels()
	v := p.IntensityBase
	for r := range v {
		v[r] += p.IntensitySlope[r] * dm
		if v[r] < 0 {
			v[r] = 0
		}
	}
	return v
}

// Demand returns the VBP-style solo utilization vector at res.
func (p *GameProfile) Demand(res sim.Resolution) sim.Vector {
	dm := res.MPixels() - p.ResLo.MPixels()
	v := p.DemandBase
	for r := range v {
		v[r] += p.DemandSlope[r] * dm
		if v[r] < 0 {
			v[r] = 0
		}
	}
	return v.Clamp(0, 1)
}

// SensitivityScore returns the paper's delta^A_r(1): the degradation
// suffered at maximum pressure, expressed as the LOST fraction of solo FPS
// (what the SMiTe model multiplies intensities with).
func (p *GameProfile) SensitivityScore(r sim.Resource) float64 {
	curve := p.Sensitivity[r]
	if len(curve) == 0 {
		return 0
	}
	return 1 - curve[len(curve)-1]
}

// FlatSensitivity appends all R*(K+1) curve points to dst in resource
// order — the S^A block of the model input vectors.
func (p *GameProfile) FlatSensitivity(dst []float64) []float64 {
	for r := 0; r < sim.NumResources; r++ {
		dst = append(dst, p.Sensitivity[r]...)
	}
	return dst
}

// Profiler drives the offline profiling step against a server.
type Profiler struct {
	Server *sim.Server
	// K is the pressure granularity; <= 0 defaults to DefaultK.
	K int
	// ResLo and ResHi are the two profiled resolutions; zero values
	// default to 720p and 1080p.
	ResLo, ResHi sim.Resolution
	// Repeats averages each measurement this many times to tame noise;
	// <= 0 defaults to 3 (the paper runs each scene "for several
	// minutes").
	Repeats int
	// Conservative switches profiling to the minimum frame rate instead
	// of the mean — Section 7's suggested mechanism against temporary
	// QoS violations when colocated games render complex scenes
	// simultaneously. Sensitivity curves and solo rates are then both
	// worst-case figures.
	Conservative bool
	// Metrics, when non-nil, receives per-game profiling timings and
	// benchmark-colocation counts (see internal/obs).
	Metrics *obs.Registry
	// Tracer, when non-nil, records one trace per ProfileCatalog run with
	// a child span per game (and one trace per standalone ProfileGame).
	Tracer *trace.Tracer
}

func (pf *Profiler) defaults() Profiler {
	out := *pf
	if out.K <= 0 {
		out.K = DefaultK
	}
	if out.ResLo == (sim.Resolution{}) {
		out.ResLo = sim.Res720p
	}
	if out.ResHi == (sim.Resolution{}) {
		out.ResHi = sim.Res1080p
	}
	if out.Repeats <= 0 {
		out.Repeats = 3
	}
	return out
}

// ProfileGame measures one game end to end.
func (pf *Profiler) ProfileGame(g *sim.GameSpec) (*GameProfile, error) {
	var root trace.Root
	pf.Tracer.StartRoot(&root, 0, "profile-game")
	p, err := pf.profileGame(g)
	root.End(trace.Int("game", g.ID), trace.String("name", g.Name), trace.Bool("ok", err == nil))
	return p, err
}

func (pf *Profiler) profileGame(g *sim.GameSpec) (*GameProfile, error) {
	cfg := pf.defaults()
	if cfg.Server == nil {
		return nil, fmt.Errorf("profile: nil server")
	}
	if cfg.ResLo.MPixels() >= cfg.ResHi.MPixels() {
		return nil, fmt.Errorf("profile: ResLo %v must have fewer pixels than ResHi %v", cfg.ResLo, cfg.ResHi)
	}
	// Every measurement for this game draws noise from a stream derived
	// from (server seed, game ID) — not from the caller's shared stream —
	// so the profile is a pure function of the game's identity and
	// ProfileCatalog may run games in any order, on any worker count,
	// with byte-identical results.
	srv := cfg.Server.TaskServer("profile-game", int64(g.ID))
	if gameSec := cfg.Metrics.Histogram("gaugur_profile_game_seconds", nil,
		"wall-clock time to profile one game end to end"); gameSec != nil {
		// Observe via defer so a mid-profile error return is timed too.
		now := cfg.Tracer.ClockOr(cfg.Metrics)
		start := now()
		defer func() { gameSec.Observe(obs.Seconds(start, now())) }()
	}
	benchRuns := cfg.Metrics.Counter("gaugur_profile_bench_runs_total",
		"benchmark colocation measurements executed while profiling")
	p := &GameProfile{
		GameID: g.ID,
		Name:   g.Name,
		K:      cfg.K,
		ResLo:  cfg.ResLo,
		ResHi:  cfg.ResHi,
		CPUMem: g.CPUMem,
		GPUMem: g.GPUMem,
	}

	loLow := sim.NewInstance(g, cfg.ResLo)
	loHigh := sim.NewInstance(g, cfg.ResHi)

	// Solo frame rates at both resolutions -> Equation (2) parameters.
	// Conservative mode anchors everything to the minimum frame rate.
	measureSolo := func(in sim.Instance) float64 {
		st := srv.MeasureSoloStats(in)
		if cfg.Conservative {
			return st.Min
		}
		return st.Mean
	}
	fpsLo := cfg.avg(func() float64 { return measureSolo(loLow) })
	fpsHi := cfg.avg(func() float64 { return measureSolo(loHigh) })
	dm := cfg.ResHi.MPixels() - cfg.ResLo.MPixels()
	p.FPSSlopeA = (fpsLo - fpsHi) / dm
	p.FPSIntercptB = fpsLo + p.FPSSlopeA*cfg.ResLo.MPixels()

	// Solo demand vectors (utilization counters) at both resolutions.
	p.DemandBase = srv.DemandVector(loLow)
	demHi := srv.DemandVector(loHigh)
	for r := range p.DemandSlope {
		p.DemandSlope[r] = (demHi[r] - p.DemandBase[r]) / dm
	}

	// Sensitivity curves and intensities via benchmark colocation.
	levels := sim.PressureLevels(cfg.K)
	for r := 0; r < sim.NumResources; r++ {
		res := sim.Resource(r)
		curve := make([]float64, len(levels))
		excessLo := make([]float64, 0, len(levels))
		for xi, x := range levels {
			var degr, slow float64
			for rep := 0; rep < cfg.Repeats; rep++ {
				var ob sim.BenchObservation
				if cfg.Conservative {
					ob = srv.RunBenchmarkConservative(loLow, res, x)
				} else {
					ob = srv.RunBenchmark(loLow, res, x)
				}
				benchRuns.Inc()
				degr += sim.Degradation(ob.GameFPS, fpsLo)
				slow += ob.BenchSlowdown
			}
			curve[xi] = degr / float64(cfg.Repeats)
			excessLo = append(excessLo, slow/float64(cfg.Repeats)-1)
		}
		// Curves are degradations: pin delta(0)=1 and enforce the
		// physical monotonicity the noise can blur.
		curve[0] = 1
		for i := 1; i < len(curve); i++ {
			if curve[i] > curve[i-1] {
				curve[i] = curve[i-1]
			}
		}
		p.Sensitivity[r] = curve
		p.IntensityBase[r] = stats.Mean(excessLo)

		if res.GPUSide() {
			// Second-resolution intensity measurement for the
			// Observation-8 interpolation.
			excessHi := make([]float64, 0, len(levels))
			for _, x := range levels {
				var slow float64
				for rep := 0; rep < cfg.Repeats; rep++ {
					ob := srv.RunBenchmark(loHigh, res, x)
					benchRuns.Inc()
					slow += ob.BenchSlowdown
				}
				excessHi = append(excessHi, slow/float64(cfg.Repeats)-1)
			}
			p.IntensitySlope[r] = (stats.Mean(excessHi) - p.IntensityBase[r]) / dm
		}
	}
	cfg.Metrics.Counter("gaugur_profile_games_total",
		"games profiled end to end").Inc()
	return p, nil
}

func (pf *Profiler) avg(f func() float64) float64 {
	s := 0.0
	for i := 0; i < pf.Repeats; i++ {
		s += f()
	}
	return s / float64(pf.Repeats)
}

// Set indexes the profiles of a whole catalog.
type Set struct {
	ByID map[int]*GameProfile
	// Order preserves catalog order for deterministic iteration.
	Order []*GameProfile
}

// ProfileCatalog profiles every game in the catalog, in catalog order. The
// returned Set is the offline artifact GAugur trains and predicts from; its
// cost is O(N) in the number of games, matching Section 3.6. Every game's
// measurement noise is derived from its own identity (sim.Server.TaskServer),
// never from execution order.
func (pf *Profiler) ProfileCatalog(c *sim.Catalog) (*Set, error) {
	if catSec := pf.Metrics.Histogram("gaugur_profile_catalog_seconds", nil,
		"wall-clock time to profile the whole catalog"); catSec != nil {
		// Observe via defer: the early error return below is timed too.
		now := pf.Tracer.ClockOr(pf.Metrics)
		start := now()
		defer func() { catSec.Observe(obs.Seconds(start, now())) }()
	}

	var root trace.Root
	pf.Tracer.StartRoot(&root, 0, "profile-catalog")
	defer root.End(trace.Int("games", c.Len()))
	set := &Set{ByID: make(map[int]*GameProfile, c.Len())}
	for _, g := range c.Games {
		start := pf.Tracer.Now()
		p, err := pf.profileGame(g)
		root.Child(0, "profile-game", start, pf.Tracer.Now(),
			trace.Int("game", g.ID), trace.String("name", g.Name), trace.Bool("ok", err == nil))
		if err != nil {
			return nil, fmt.Errorf("profile: game %q: %w", g.Name, err)
		}
		set.ByID[p.GameID] = p
		set.Order = append(set.Order, p)
	}
	return set, nil
}

// Get returns the profile for a game ID, or nil.
func (s *Set) Get(id int) *GameProfile { return s.ByID[id] }

// Len returns the number of profiles.
func (s *Set) Len() int { return len(s.Order) }
