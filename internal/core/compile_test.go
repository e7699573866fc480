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

// sameAnswers asserts that p answers every public query bit-identically to
// ref over colocs: per-member degradation and QoS verdicts, both
// feasibility checks, and the batched degradation and total-FPS scorers.
func sameAnswers(t *testing.T, name string, p, ref *Predictor, colocs []Colocation) {
	t.Helper()
	var qs []BatchQuery
	for _, c := range colocs {
		for i := range c {
			got, want := p.PredictDegradation(c, i), ref.PredictDegradation(c, i)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: degradation %v != reference %v (coloc %v idx %d)", name, got, want, c, i)
			}
			if gs, ws := p.SatisfiesQoS(c, i), ref.SatisfiesQoS(c, i); gs != ws {
				t.Fatalf("%s: QoS verdict %v != reference %v (coloc %v idx %d)", name, gs, ws, c, i)
			}
			qs = append(qs, BatchQuery{Coloc: c, Index: i})
		}
		if gf, wf := p.FeasibleCM(c), ref.FeasibleCM(c); gf != wf {
			t.Fatalf("%s: FeasibleCM %v != reference %v (coloc %v)", name, gf, wf, c)
		}
		if gf, wf := p.FeasibleRM(c), ref.FeasibleRM(c); gf != wf {
			t.Fatalf("%s: FeasibleRM %v != reference %v (coloc %v)", name, gf, wf, c)
		}
	}
	got, want := p.PredictBatch(qs, nil), ref.PredictBatch(qs, nil)
	for i := range qs {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: PredictBatch[%d] %v != reference %v", name, i, got[i], want[i])
		}
	}
	got, want = p.PredictTotalFPSBatch(colocs, nil), ref.PredictTotalFPSBatch(colocs, nil)
	for i, c := range colocs {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: PredictTotalFPSBatch %v != reference %v (coloc %v)", name, got[i], want[i], c)
		}
	}
}

// TestPredictorCompiledMatchesReference: Train installs compiled plans for
// the boosted ensembles, and every public query answers bit-identically to
// the reference interface path. The CART and forest kinds compile only
// when their fitted trees stay within the kernel's depth cut-off; compiled
// or not, they must answer like the reference too.
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
		rm, cm := p.Compiled()
		if k.rm == GBRT && (!rm || !cm) {
			t.Fatalf("%s/%s: Train did not compile plans (rm=%v cm=%v)", k.rm, k.cm, rm, cm)
		}
		t.Logf("%s compiled %v, %s compiled %v", k.rm, rm, k.cm, cm)
		sameAnswers(t, string(k.rm)+"/"+string(k.cm), p, uncompiled(p), colocs)
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
// round trip recompiles transparently (the boosted kinds must compile
// again, the forest kinds as they did before saving) and serves identical
// predictions.
func TestLoadPredictorRecompiles(t *testing.T) {
	lab := testLab(t)
	for _, k := range []struct {
		rm RegressorKind
		cm ClassifierKind
	}{{GBRT, GBDT}, {RF, RFC}} {
		p, colocs := trainTestPredictor(t, lab, k.rm, k.cm)
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		q, err := LoadPredictor(&buf, lab.Profiles)
		if err != nil {
			t.Fatalf("%s/%s: %v", k.rm, k.cm, err)
		}
		prm, pcm := p.Compiled()
		qrm, qcm := q.Compiled()
		if qrm != prm || qcm != pcm || (k.rm == GBRT && (!qrm || !qcm)) {
			t.Fatalf("%s/%s: loaded predictor compiled (rm=%v cm=%v), trained one (rm=%v cm=%v)",
				k.rm, k.cm, qrm, qcm, prm, pcm)
		}
		sameAnswers(t, "round-trip "+string(k.rm)+"/"+string(k.cm), q, p, colocs)
	}
}
