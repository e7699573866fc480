package core

import (
	"bytes"
	"math"
	"testing"
)

// trainTestPredictor fits a predictor on a small collected sample set.
func trainTestPredictor(t *testing.T, lab *Lab, rm RegressorKind, cm ClassifierKind) (*Predictor, []Colocation) {
	t.Helper()
	colocs := RandomColocations(lab.Catalog, ColocationPlan{Pairs: 30, Triples: 10, Quads: 5}, 3)
	samples := lab.CollectSamples(colocs, 60, 10)
	p, err := Train(lab.Profiles, TrainConfig{Samples: samples, RMKind: rm, CMKind: cm, Seed: 1, EncoderK: 10})
	if err != nil {
		t.Fatal(err)
	}
	return p, colocs
}

// uncompiled returns a predictor over the same models with no plans
// installed, forcing the reference interface path.
func uncompiled(p *Predictor) *Predictor {
	return &Predictor{Profiles: p.Profiles, Enc: p.Enc, RM: p.RM, CM: p.CM, QoS: p.QoS}
}

// TestPredictorCompiledMatchesReference: Train installs compiled plans for
// the tree families, and every public query answers bit-identically to the
// reference interface path.
func TestPredictorCompiledMatchesReference(t *testing.T) {
	lab := testLab(t)
	kinds := []struct {
		rm RegressorKind
		cm ClassifierKind
	}{
		{GBRT, GBDT}, // the paper's winners (and the serving default)
		{DTR, DTC},
		{RF, RFC},
	}
	for _, k := range kinds {
		p, colocs := trainTestPredictor(t, lab, k.rm, k.cm)
		if rm, cm := p.Compiled(); !rm || !cm {
			t.Fatalf("%s/%s: Train did not compile plans (rm=%v cm=%v)", k.rm, k.cm, rm, cm)
		}
		ref := uncompiled(p)
		for _, c := range colocs {
			for i := range c {
				got, want := p.PredictDegradation(c, i), ref.PredictDegradation(c, i)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: compiled degradation %v != reference %v (coloc %v idx %d)",
						k.rm, got, want, c, i)
				}
				if gs, ws := p.SatisfiesQoS(c, i), ref.SatisfiesQoS(c, i); gs != ws {
					t.Fatalf("%s: compiled QoS verdict %v != reference %v (coloc %v idx %d)",
						k.cm, gs, ws, c, i)
				}
			}
			if gf, wf := p.FeasibleCM(c), ref.FeasibleCM(c); gf != wf {
				t.Fatalf("%s: compiled FeasibleCM %v != reference %v (coloc %v)", k.cm, gf, wf, c)
			}
			if gf, wf := p.FeasibleRM(c), ref.FeasibleRM(c); gf != wf {
				t.Fatalf("%s: compiled FeasibleRM %v != reference %v (coloc %v)", k.rm, gf, wf, c)
			}
		}
	}
}

// TestPredictorSVMUncompiled: non-tree models cannot compile; the predictor
// must silently keep the interface path and still answer queries.
func TestPredictorSVMUncompiled(t *testing.T) {
	lab := testLab(t)
	p, colocs := trainTestPredictor(t, lab, SVR, SVC)
	if rm, cm := p.Compiled(); rm || cm {
		t.Fatalf("SVR/SVC unexpectedly compiled (rm=%v cm=%v)", rm, cm)
	}
	c := colocs[0]
	if d := p.PredictDegradation(c, 0); d < 0 || d > 1 {
		t.Fatalf("uncompiled degradation out of range: %v", d)
	}
	p.SatisfiesQoS(c, 0) // must not panic
}

// TestLoadPredictorRecompiles: plans are never persisted — a save/load
// round trip recompiles transparently and serves identical predictions.
func TestLoadPredictorRecompiles(t *testing.T) {
	lab := testLab(t)
	p, colocs := trainTestPredictor(t, lab, GBRT, GBDT)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPredictor(&buf, lab.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	if rm, cm := q.Compiled(); !rm || !cm {
		t.Fatalf("loaded predictor not recompiled (rm=%v cm=%v)", rm, cm)
	}
	for _, c := range colocs {
		for i := range c {
			a, b := p.PredictDegradation(c, i), q.PredictDegradation(c, i)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("round-trip degradation differs: %v vs %v (coloc %v idx %d)", a, b, c, i)
			}
			if sa, sb := p.SatisfiesQoS(c, i), q.SatisfiesQoS(c, i); sa != sb {
				t.Fatalf("round-trip QoS verdict differs: %v vs %v (coloc %v idx %d)", sa, sb, c, i)
			}
		}
	}
}
