// Dispatcher: Section 5.2's problem — assign a stream of gaming requests
// onto a fixed fleet so that the average frame rate is maximized, using
// GAugur(RM)'s interference predictions to steer each placement, and
// compare against interference-blind worst-fit (VBP).
package main

import (
	"fmt"
	"log"

	"gaugur/internal/baselines"
	"gaugur/internal/core"
	"gaugur/internal/profile"
	"gaugur/internal/sched"
	"gaugur/internal/sim"
	"gaugur/internal/stats"
)

func main() {
	const (
		qos      = 60.0
		requests = 2000
		servers  = 800
	)

	catalog := sim.NewCatalog(42)
	server := sim.NewServer(7)
	profiler := &profile.Profiler{Server: server}
	profiles, err := profiler.ProfileCatalog(catalog)
	if err != nil {
		log.Fatal(err)
	}
	lab, err := core.NewLab(server, catalog, profiles)
	if err != nil {
		log.Fatal(err)
	}
	colocs := core.RandomColocations(catalog, core.ColocationPlan{Pairs: 300, Triples: 60, Quads: 60}, 99)
	samples := lab.CollectSamples(colocs, qos, profile.DefaultK)
	predictor, err := core.Train(profiles, core.TrainConfig{Samples: samples, Seed: 1, EncoderK: profile.DefaultK})
	if err != nil {
		log.Fatal(err)
	}

	names := []string{
		"After Dreams", "AirMech Strike", "Far Cry4", "H1Z1",
		"Rise of The Tomb Raider", "The Elder Scrolls5", "World of Warcraft",
		"NieR: Automata", "Project CARS", "TEKKEN 7",
	}
	ids := make([]int, len(names))
	for i, n := range names {
		ids[i] = catalog.MustGet(n).ID
	}
	demand := sched.SpreadRequests(ids, requests, nil)
	stream := sched.ExpandRequests(demand)

	// GAugur(RM)-steered greedy: place each request where the predicted
	// total FPS delta is best. PredictTotalFPS batches the colocation's
	// per-index queries over one shared buffer set.
	score := func(games []int) float64 {
		return predictor.PredictTotalFPS(core.ColocationOf(games))
	}
	d := &sched.Dispatcher{NumServers: servers, MaxPerServer: 4, Score: score}
	fleet, err := d.Assign(stream)
	if err != nil {
		log.Fatal(err)
	}
	fps := sched.EvaluateFleet(lab, fleet)
	fmt.Printf("GAugur(RM): %d requests on %d servers -> average %.1f FPS (p10 %.1f, p90 %.1f)\n",
		requests, servers, stats.Mean(fps), pctl(fps, 0.1), pctl(fps, 0.9))

	// Interference-blind worst-fit on VBP demand vectors.
	vbp := baselines.NewVBP(profiles)
	demandOf := func(g int) float64 {
		return 5 - vbp.RemainingCapacity(core.ColocationOf([]int{g}))
	}
	wfFleet, err := sched.WorstFit(stream, servers, 4, 5, demandOf)
	if err != nil {
		log.Fatal(err)
	}
	wfFPS := sched.EvaluateFleet(lab, wfFleet)
	fmt.Printf("VBP:        %d requests on %d servers -> average %.1f FPS (p10 %.1f, p90 %.1f)\n",
		requests, servers, stats.Mean(wfFPS), pctl(wfFPS, 0.1), pctl(wfFPS, 0.9))

	gain := 100 * (stats.Mean(fps)/stats.Mean(wfFPS) - 1)
	fmt.Printf("\ninterference-aware dispatch improves average FPS by %.1f%%\n", gain)
}

func pctl(xs []float64, p float64) float64 {
	return stats.NewCDF(xs).InverseAt(p)
}
