package ml

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// FuzzLoadModel throws arbitrary bytes at the deserializer for every model
// family the registry hot-loads. The contract under fuzzing: LoadModel
// never panics, and any stream it accepts yields a model whose Predict is
// safe on a FeatureDim-width input.
func FuzzLoadModel(f *testing.F) {
	x, y, _ := persistProblem(5)
	tr := NewTree(TreeConfig{MaxDepth: 3})
	if err := tr.Fit(x, y); err != nil {
		f.Fatal(err)
	}
	gr := NewGBRT(GBMConfig{NumTrees: 4, MaxDepth: 2, Seed: 1})
	if err := gr.Fit(x, y); err != nil {
		f.Fatal(err)
	}
	sv := NewSVR(SVMConfig{C: 1, MaxIter: 10})
	if err := sv.Fit(x[:25], y[:25]); err != nil {
		f.Fatal(err)
	}
	rg := NewRidge(0.1)
	if err := rg.Fit(x, y); err != nil {
		f.Fatal(err)
	}
	for _, m := range []any{tr, gr, sv, rg} {
		var buf bytes.Buffer
		if err := SaveModel(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not gob"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var tree Tree
		if err := LoadModel(bytes.NewReader(data), &tree); err == nil && tree.NumNodes() > 0 {
			tree.Predict(make([]float64, tree.FeatureDim()))
		}
		var gbrt GBRT
		if err := LoadModel(bytes.NewReader(data), &gbrt); err == nil && len(gbrt.trees) > 0 {
			gbrt.Predict(make([]float64, gbrt.FeatureDim()))
		}
		var svr SVR
		if err := LoadModel(bytes.NewReader(data), &svr); err == nil && len(svr.x) > 0 {
			svr.Predict(make([]float64, svr.FeatureDim()))
		}
		var ridge Ridge
		if err := LoadModel(bytes.NewReader(data), &ridge); err == nil {
			ridge.Predict(make([]float64, ridge.FeatureDim()))
		}
	})
}

// fuzzBytes hands out the fuzzer's bytes one at a time and zeros once they
// run out, so every input decodes to some finite ensemble.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzValues extends splitPalette with the float extremes: leaf values,
// the boosting base and (finite or infinite) row features draw from it.
var fuzzValues = append(append([]float64{}, splitPalette...),
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1))

// fuzzTree decodes one tree of at most depth edges over nFeat features in
// the node order Tree.grow emits. A node is a leaf when its depth budget
// is spent or its tag byte says so; a split's threshold may also be NaN,
// which Tree.validate accepts from a decoded model.
func fuzzTree(in *fuzzBytes, depth, nFeat int) *Tree {
	t := &Tree{nFeatures: nFeat}
	var grow func(rem int) int32
	grow = func(rem int) int32 {
		me := int32(len(t.nodes))
		t.nodes = append(t.nodes, treeNode{left: -1, right: -1})
		if rem == 0 || in.next()%4 == 0 {
			t.nodes[me].value = fuzzValues[in.next()%len(fuzzValues)]
			return me
		}
		feat := in.next() % nFeat
		thr := math.NaN()
		if k := in.next() % (len(fuzzValues) + 1); k < len(fuzzValues) {
			thr = fuzzValues[k]
		}
		left := grow(rem - 1)
		right := grow(rem - 1)
		t.nodes[me] = treeNode{feature: feat, threshold: thr, left: left, right: right}
		return me
	}
	grow(depth)
	return t
}

// FuzzCompiledForest searches for ensembles and rows on which the compiled
// kernel leaves the reference walk. Bytes decode into 1–9 trees of depth
// 0–7 over 1–6 features and 1–33 rows (every EvalBatch chunk tail) of
// finite or infinite features drawn from the same values the splits use,
// so features tie thresholds, straddle both zeros and meet ±Inf. A plan
// within heapMaxDepth must compile, and its Eval and EvalBatch must equal
// GBRT.Predict bit for bit; a deeper one must be refused with errTooDeep.
func FuzzCompiledForest(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 32+rng.Intn(480))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		nFeat := 1 + in.next()%6
		trees := make([]*Tree, 1+in.next()%9)
		for i := range trees {
			trees[i] = fuzzTree(&in, in.next()%8, nFeat)
		}
		gb := &GBRT{
			cfg:   GBMConfig{LearningRate: []float64{0.05, 0.1, 0.5, 1, 2}[in.next()%5]},
			base:  fuzzValues[in.next()%len(fuzzValues)],
			trees: trees,
		}
		rows := make([][]float64, 1+in.next()%33)
		for r := range rows {
			rows[r] = make([]float64, nFeat)
			for k := range rows[r] {
				rows[r][k] = fuzzValues[in.next()%len(fuzzValues)]
			}
		}
		if plan := compileChecked(t, "fuzz", gb, trees...); plan != nil {
			checkRegEquivalence(t, "fuzz", plan, gb.Predict, rows)
		}
	})
}
