package experiments

import (
	"gaugur/internal/core"
	"gaugur/internal/sim"
	"gaugur/internal/stats"
)

// fig4Games are the six representative titles the paper plots in Figures 4
// and 5.
var fig4Games = []string{
	"Dota2", "Far Cry4", "Granado Espada",
	"Rise of The Tomb Raider", "The Elder Scrolls5", "World of Warcraft",
}

// Fig1 reproduces Figure 1: frame rates of specific colocated pairs,
// showing that the same game degrades very differently depending on its
// partner.
func Fig1(env *Env) (*Table, error) {
	pairs := [][2]string{
		{"Ancestors Legacy", "Borderland2"},
		{"Ancestors Legacy", "H1Z1"},
		{"Borderland2", "H1Z1"},
		{"ARK Survival Evolved", "Ancestors Legacy"},
		{"ARK Survival Evolved", "Borderland2"},
		{"ARK Survival Evolved", "H1Z1"},
	}
	t := &Table{
		ID:      "fig1",
		Title:   "FPS of colocated game pairs (1080p)",
		Columns: []string{"game A", "game B", "FPS A", "FPS B", "solo A", "solo B"},
	}
	for _, pr := range pairs {
		a := env.Catalog.MustGet(pr[0])
		b := env.Catalog.MustGet(pr[1])
		c := core.ColocationOf([]int{a.ID, b.ID})
		fps := env.Lab.Measure(c)
		insts := env.Lab.Instances(c)
		t.AddRow(pr[0], pr[1], f1(fps[0]), f1(fps[1]), f1(insts[0].SoloFPS()), f1(insts[1].SoloFPS()))
	}
	t.AddNote("partner identity changes the same game's frame rate, motivating per-colocation prediction")
	return t, nil
}

// Fig2 reproduces Figure 2: solo resource demand vectors and solo frame
// rates of the 100-game catalog.
func Fig2(env *Env) (*Table, error) {
	t := &Table{
		ID:      "fig2",
		Title:   "Solo demand and solo FPS of the 100 games (1080p)",
		Columns: []string{"id", "game", "genre", "CPU", "GPU", "CPU-mem", "GPU-mem", "solo FPS"},
	}
	var fpsAll, cpuAll, gpuAll []float64
	for _, g := range env.Catalog.Games {
		in := sim.NewInstance(g, core.ReferenceResolution)
		dem := env.Server.DemandVector(in)
		fps := env.Server.MeasureSolo(in)
		t.AddRow(d0(g.ID), g.Name, g.Genre.String(),
			f2(dem[sim.CPUCE]), f2(dem[sim.GPUCE]), f2(g.CPUMem), f2(g.GPUMem), f1(fps))
		fpsAll = append(fpsAll, fps)
		cpuAll = append(cpuAll, dem[sim.CPUCE])
		gpuAll = append(gpuAll, dem[sim.GPUCE])
	}
	loF, hiF, _ := stats.MinMax(fpsAll)
	t.AddNote("solo FPS spans %.0f..%.0f (mean %.0f); CPU demand mean %.2f, GPU demand mean %.2f",
		loF, hiF, stats.Mean(fpsAll), stats.Mean(cpuAll), stats.Mean(gpuAll))
	t.AddNote("demand diversity is the colocation opportunity of Section 2.1")
	return t, nil
}

// Fig4 reproduces Figure 4: measured sensitivity curves of six games on
// all seven shared resources (k = 10 pressure levels).
func Fig4(env *Env) (*Table, error) {
	levels := sim.PressureLevels(env.Profiles.Order[0].K)
	cols := []string{"game", "resource"}
	for _, x := range levels {
		cols = append(cols, f1(x))
	}
	t := &Table{
		ID:      "fig4",
		Title:   "Sensitivity curves (retained FPS fraction vs. pressure)",
		Columns: cols,
	}
	for _, name := range fig4Games {
		g := env.Catalog.MustGet(name)
		p := env.Profiles.Get(g.ID)
		for r := 0; r < sim.NumResources; r++ {
			row := []string{name, sim.Resource(r).String()}
			for _, v := range p.Sensitivity[r] {
				row = append(row, f2(v))
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("curves are nonlinear for many (game, resource) pairs: Observation 4")
	return t, nil
}

// Fig5 reproduces Figure 5: measured intensity of the same six games.
func Fig5(env *Env) (*Table, error) {
	cols := []string{"game"}
	for r := 0; r < sim.NumResources; r++ {
		cols = append(cols, sim.Resource(r).String())
	}
	t := &Table{
		ID:      "fig5",
		Title:   "Intensity (avg benchmark excess slowdown) at 1080p",
		Columns: cols,
	}
	for _, name := range fig4Games {
		g := env.Catalog.MustGet(name)
		p := env.Profiles.Get(g.ID)
		iv := p.Intensity(core.ReferenceResolution)
		row := []string{name}
		for r := 0; r < sim.NumResources; r++ {
			row = append(row, f2(iv[r]))
		}
		t.AddRow(row...)
	}
	t.AddNote("sensitivity and intensity decouple (e.g. Granado Espada on GPU-CE): Observation 2")
	return t, nil
}

// Fig6 reproduces Figure 6: for two games run together, the holistic
// (measured) aggregate intensity versus the sum of individual intensities.
func Fig6(env *Env) (*Table, error) {
	a := env.Catalog.MustGet("AirMech Strike")
	b := env.Catalog.MustGet("Hobo: Tough Life")
	pa := env.Profiles.Get(a.ID)
	pb := env.Profiles.Get(b.ID)
	insts := []sim.Instance{
		sim.NewInstance(a, core.ReferenceResolution),
		sim.NewInstance(b, core.ReferenceResolution),
	}
	t := &Table{
		ID:      "fig6",
		Title:   "Aggregate intensity vs. sum of intensities (AirMech Strike + Hobo: Tough Life)",
		Columns: []string{"resource", "sum", "holistic", "holistic/sum"},
	}
	levels := sim.PressureLevels(pa.K)
	for r := 0; r < sim.NumResources; r++ {
		res := sim.Resource(r)
		sum := pa.Intensity(core.ReferenceResolution)[r] + pb.Intensity(core.ReferenceResolution)[r]
		var excess []float64
		for _, x := range levels {
			for rep := 0; rep < 3; rep++ {
				excess = append(excess, env.Server.RunBenchmarkAgainst(insts, res, x)-1)
			}
		}
		hol := stats.Mean(excess)
		ratio := 0.0
		if sum > 0 {
			ratio = hol / sum
		}
		t.AddRow(res.String(), f2(sum), f2(hol), f2(ratio))
	}
	t.AddNote("intensity is not additive (Observation 5): superadditive on cores, subadditive on caches/bandwidths")
	return t, nil
}
