package gaugur_test

import (
	"testing"

	"gaugur/internal/core"
	"gaugur/internal/profile"
	"gaugur/internal/sim"
)

// Pipeline benchmarks: the offline profile -> collect -> train path, plus the
// batch online-prediction API. `make bench` smoke-runs them; the layered
// benchmark (`go run ./bench`) reports the same stages as profile.catalog_s /
// core.collect_s / core.train_s.

// pipelinePlan keeps one benchmark iteration affordable while still
// exercising all three colocation sizes.
var pipelinePlan = core.ColocationPlan{Pairs: 250, Triples: 50, Quads: 50}

// BenchmarkProfileCatalog profiles the full 100-game catalog.
func BenchmarkProfileCatalog(b *testing.B) {
	catalog := sim.NewCatalog(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf := &profile.Profiler{Server: sim.NewServer(7)}
		if _, err := pf.ProfileCatalog(catalog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectSamples measures colocation sample collection.
func BenchmarkCollectSamples(b *testing.B) {
	catalog := sim.NewCatalog(42)
	server := sim.NewServer(7)
	pf := &profile.Profiler{Server: server}
	set, err := pf.ProfileCatalog(catalog)
	if err != nil {
		b.Fatal(err)
	}
	lab, err := core.NewLab(server, catalog, set)
	if err != nil {
		b.Fatal(err)
	}
	colocs := core.RandomColocations(catalog, pipelinePlan, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := lab.CollectSamples(colocs, 60, profile.DefaultK); s.Len() == 0 {
			b.Fatal("no samples collected")
		}
	}
}

// BenchmarkTrainPipeline runs the whole offline pipeline — profile the
// 100-game catalog, measure the colocation plan, train GBRT+GBDT. Training
// is ~98% of it and fans out over GOMAXPROCS inside the tree learner.
func BenchmarkTrainPipeline(b *testing.B) {
	catalog := sim.NewCatalog(42)
	colocs := core.RandomColocations(catalog, pipelinePlan, 99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server := sim.NewServer(7)
		pf := &profile.Profiler{Server: server}
		set, err := pf.ProfileCatalog(catalog)
		if err != nil {
			b.Fatal(err)
		}
		lab, err := core.NewLab(server, catalog, set)
		if err != nil {
			b.Fatal(err)
		}
		samples := lab.CollectSamples(colocs, 60, profile.DefaultK)
		if _, err := core.Train(set, core.TrainConfig{
			Samples:  samples,
			Seed:     1,
			EncoderK: profile.DefaultK,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch answers 256 RM queries per iteration through the
// buffer-reusing batch API — the shape of the dispatcher's scoring loops.
func BenchmarkPredictBatch(b *testing.B) {
	env := benchEnv(b)
	p, err := env.GAugur(env.Cfg.QoSHigh)
	if err != nil {
		b.Fatal(err)
	}
	colocs := core.RandomColocations(env.Catalog, core.ColocationPlan{Pairs: 48, Triples: 8, Quads: 8}, 5)
	qs := make([]core.BatchQuery, 0, 256)
	for _, c := range colocs {
		for i := range c {
			if len(qs) == cap(qs) {
				break
			}
			qs = append(qs, core.BatchQuery{Coloc: c, Index: i})
		}
	}
	dst := make([]float64, len(qs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictBatch(qs, dst)
	}
	// The forest kernel's per-row cost as a named number (encode + walk of
	// one RM query), so a kernel change reads straight off bench.txt.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/row")
}
