package core

import (
	"reflect"
	"runtime"
	"testing"

	"gaugur/internal/obs/trace"
	"gaugur/internal/profile"
	"gaugur/internal/sim"
)

// TestParallelPipelineMatchesSequential is the golden guarantee behind the
// offline pipeline: profile -> collect samples -> train must produce
// byte-identical profiles, samples and model predictions whatever the
// process has to run on and whoever is watching. The only parallelism left
// in it is the tree learner's GOMAXPROCS fan-out, so one leg runs at
// GOMAXPROCS 1 and the other at 8; the second also carries a live tracer
// through every stage — spans observe, they must not participate.
func TestParallelPipelineMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	catalog := sim.NewCatalog(42)
	plan := ColocationPlan{Pairs: 40, Triples: 10, Quads: 10}
	if testing.Short() {
		plan = ColocationPlan{Pairs: 15, Triples: 5, Quads: 5}
	}
	colocs := RandomColocations(catalog, plan, 99)

	type artifacts struct {
		set     *profile.Set
		samples *SampleSet
		pred    *Predictor
	}
	run := func(procs int, tracer *trace.Tracer) artifacts {
		runtime.GOMAXPROCS(procs)
		server := sim.NewServer(7)
		pf := &profile.Profiler{Server: server, Repeats: 1, Tracer: tracer}
		set, err := pf.ProfileCatalog(catalog)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := NewLab(server, catalog, set)
		if err != nil {
			t.Fatal(err)
		}
		lab.Tracer = tracer
		samples := lab.CollectSamples(colocs, 60, profile.DefaultK)
		pred, err := Train(set, TrainConfig{Samples: samples, Seed: 1, EncoderK: profile.DefaultK, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		return artifacts{set: set, samples: samples, pred: pred}
	}

	seq := run(1, nil)
	tracer := trace.New(trace.Config{Seed: 5})
	par := run(8, tracer)
	traces := map[string]bool{}
	for _, tr := range tracer.Store().Recent(0) {
		traces[tr.Name] = true
	}
	if !traces["profile-catalog"] || !traces["collect-samples"] {
		t.Errorf("traced run committed traces %v, want the profile and collect stages among them", traces)
	}

	if seq.set.Len() != par.set.Len() {
		t.Fatalf("profile counts differ: %d vs %d", seq.set.Len(), par.set.Len())
	}
	for i, sp := range seq.set.Order {
		if !reflect.DeepEqual(*sp, *par.set.Order[i]) {
			t.Fatalf("game %d (%s): profiles differ between the two runs:\nseq: %+v\npar: %+v",
				sp.GameID, sp.Name, *sp, *par.set.Order[i])
		}
	}
	if seq.samples.Len() != par.samples.Len() {
		t.Fatalf("sample counts differ: %d vs %d", seq.samples.Len(), par.samples.Len())
	}
	for i := range seq.samples.Samples {
		if !reflect.DeepEqual(seq.samples.Samples[i], par.samples.Samples[i]) {
			t.Fatalf("sample %d differs between the two runs:\nseq: %+v\npar: %+v",
				i, seq.samples.Samples[i], par.samples.Samples[i])
		}
	}
	for _, c := range colocs {
		for i := range c {
			a, b := seq.pred.PredictDegradation(c, i), par.pred.PredictDegradation(c, i)
			if a != b {
				t.Fatalf("prediction for coloc %v idx %d differs: %v vs %v", c, i, a, b)
			}
			if sa, sb := seq.pred.SatisfiesQoS(c, i), par.pred.SatisfiesQoS(c, i); sa != sb {
				t.Fatalf("QoS verdict for coloc %v idx %d differs: %v vs %v", c, i, sa, sb)
			}
		}
	}
}

// TestPredictBatchMatchesSingleQueries: the batch API must be a pure
// optimization — same values as the per-query path, in query order.
func TestPredictBatchMatchesSingleQueries(t *testing.T) {
	lab := testLab(t)
	colocs := RandomColocations(lab.Catalog, ColocationPlan{Pairs: 30, Triples: 10, Quads: 5}, 3)
	samples := lab.CollectSamples(colocs, 60, 10)
	p, err := Train(lab.Profiles, TrainConfig{Samples: samples, RMKind: DTR, CMKind: DTC, Seed: 1, EncoderK: 10})
	if err != nil {
		t.Fatal(err)
	}

	var qs []BatchQuery
	for _, c := range colocs {
		for i := range c {
			qs = append(qs, BatchQuery{Coloc: c, Index: i})
		}
	}
	// Singletons short-circuit to 1 in both paths.
	qs = append(qs, BatchQuery{Coloc: Colocation{{GameID: 0, Res: ReferenceResolution}}, Index: 0})

	got := p.PredictBatch(qs, nil)
	if len(got) != len(qs) {
		t.Fatalf("batch returned %d results for %d queries", len(got), len(qs))
	}
	for qi, q := range qs {
		if want := p.PredictDegradation(q.Coloc, q.Index); got[qi] != want {
			t.Fatalf("query %d: batch %v != single %v", qi, got[qi], want)
		}
	}

	// The dst buffer must be reused when it has capacity.
	buf := make([]float64, 0, len(qs))
	out := p.PredictBatch(qs, buf)
	if &out[0] != &buf[:1][0] {
		t.Error("PredictBatch reallocated despite sufficient dst capacity")
	}

	// PredictFPSBatch against per-index PredictFPS.
	for _, c := range colocs[:10] {
		fps := p.PredictFPSBatch(c, nil)
		total := 0.0
		for i := range c {
			if want := p.PredictFPS(c, i); fps[i] != want {
				t.Fatalf("coloc %v idx %d: batch FPS %v != single %v", c, i, fps[i], want)
			}
			total += fps[i]
		}
		if got := p.PredictTotalFPS(c); got != total {
			t.Fatalf("coloc %v: PredictTotalFPS %v != summed %v", c, got, total)
		}
	}
}
