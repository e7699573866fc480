// Package core wires GAugur together: the offline pipeline of Figure 3
// (contention-feature profiling -> model building -> model training) and
// the online predictor that answers QoS and degradation queries for
// arbitrary game colocations in microseconds.
package core

import (
	"fmt"
	"math/rand"

	"gaugur/internal/features"
	"gaugur/internal/obs/trace"
	"gaugur/internal/profile"
	"gaugur/internal/sim"
)

// ReferenceResolution is the resolution used when an experiment fixes one
// setting for all games (the scheduling studies of Section 5).
var ReferenceResolution = sim.Res1080p

// Workload is one gaming request: a game at a player-chosen resolution.
type Workload struct {
	GameID int
	Res    sim.Resolution
}

// Colocation is a set of workloads sharing one server.
type Colocation []Workload

// ColocationOf is the colocation a server holding these games runs: every
// game at the reference resolution, in the given order — the conversion from
// the fleet's game lists to what the predictor and the lab take.
func ColocationOf(games []int) Colocation {
	c := make(Colocation, len(games))
	for i, g := range games {
		c[i] = Workload{GameID: g, Res: ReferenceResolution}
	}
	return c
}

// Size returns the number of colocated games.
func (c Colocation) Size() int { return len(c) }

// Without returns a copy of c with index i removed.
func (c Colocation) Without(i int) Colocation {
	out := make(Colocation, 0, len(c)-1)
	out = append(out, c[:i]...)
	out = append(out, c[i+1:]...)
	return out
}

// With returns a copy of c with w appended.
func (c Colocation) With(w Workload) Colocation {
	out := make(Colocation, 0, len(c)+1)
	out = append(out, c...)
	return append(out, w)
}

// Lab binds the pieces an experiment needs to both MEASURE colocations on
// the (simulated) server and PREDICT them from profiles. Measurement is the
// expensive, offline operation; prediction is the online one.
type Lab struct {
	Server   *sim.Server
	Catalog  *sim.Catalog
	Profiles *profile.Set
	// Tracer, when non-nil, records one trace per CollectSamples run with
	// a child span per measured colocation.
	Tracer *trace.Tracer
}

// NewLab builds a lab after checking that every catalog game has a profile.
func NewLab(server *sim.Server, catalog *sim.Catalog, profiles *profile.Set) (*Lab, error) {
	for _, g := range catalog.Games {
		if profiles.Get(g.ID) == nil {
			return nil, fmt.Errorf("core: game %q (id %d) has no profile", g.Name, g.ID)
		}
	}
	return &Lab{Server: server, Catalog: catalog, Profiles: profiles}, nil
}

// Instances resolves a colocation to simulator instances.
func (l *Lab) Instances(c Colocation) []sim.Instance {
	out := make([]sim.Instance, len(c))
	for i, w := range c {
		out[i] = sim.NewInstance(l.Catalog.Games[w.GameID], w.Res)
	}
	return out
}

// Members resolves a colocation to feature members (profile + resolution).
func (l *Lab) Members(c Colocation) []features.Member {
	out := make([]features.Member, len(c))
	for i, w := range c {
		out[i] = features.NewMember(l.Profiles.Get(w.GameID), w.Res)
	}
	return out
}

// Measure runs the colocation on the server and returns measured FPS per
// workload (noisy ground truth, as in the paper's testbed runs).
func (l *Lab) Measure(c Colocation) []float64 {
	return l.Server.MeasureColocation(l.Instances(c))
}

// ExpectedFPS returns the noise-free ground truth, used only for scoring.
func (l *Lab) ExpectedFPS(c Colocation) []float64 {
	return l.Server.ExpectedFPS(l.Instances(c))
}

// ColocationPlan describes how many random colocations of each size to
// generate. The paper measures 500 pairs, 100 triples and 100 quadruples.
type ColocationPlan struct {
	Pairs, Triples, Quads int
}

// PaperPlan is the Section 4 experimental plan.
var PaperPlan = ColocationPlan{Pairs: 500, Triples: 100, Quads: 100}

// RandomColocations draws the plan's colocations uniformly from the
// catalog: distinct games per colocation, each at a random standard
// resolution, mirroring "games in each measured colocation are randomly
// selected ... each game runs at a randomly selected resolution".
// Memory-oversubscribed draws are rejected and redrawn: checking summed
// memory against capacity is the one feasibility test that needs no
// prediction (Section 3.2 excludes memory from the interference features
// precisely because a plain capacity check suffices), so no real platform
// would measure such a colocation.
func RandomColocations(cat *sim.Catalog, plan ColocationPlan, seed int64) []Colocation {
	rng := rand.New(rand.NewSource(seed))
	resAll := sim.StandardResolutions()
	draw := func(size int) Colocation {
		for {
			perm := rng.Perm(cat.Len())[:size]
			c := make(Colocation, size)
			var cpuMem, gpuMem float64
			for i, gi := range perm {
				g := cat.Games[gi]
				c[i] = Workload{GameID: g.ID, Res: resAll[rng.Intn(len(resAll))]}
				cpuMem += g.CPUMem
				gpuMem += g.GPUMem
			}
			if cpuMem <= 1 && gpuMem <= 1 {
				return c
			}
		}
	}
	out := make([]Colocation, 0, plan.Pairs+plan.Triples+plan.Quads)
	for i := 0; i < plan.Pairs; i++ {
		out = append(out, draw(2))
	}
	for i := 0; i < plan.Triples; i++ {
		out = append(out, draw(3))
	}
	for i := 0; i < plan.Quads; i++ {
		out = append(out, draw(4))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
