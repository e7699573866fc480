package ml

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The compiled-vs-reference equivalence suite. The serving stack swaps
// CompiledForest plans in for the reference tree walk, so equality here
// must be BIT-identical, not approximately equal: every comparison goes
// through math.Float64bits.

// randomDataset draws an n x d design matrix and a target with enough
// structure to grow non-trivial trees.
func randomDataset(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = math.Sin(row[0]) + 0.5*row[1%d] + 0.1*rng.NormFloat64()
	}
	return x, y
}

// binarizeAtZero turns a continuous target into {0,1} labels at its median-ish 0.
func binarizeAtZero(y []float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		if v > 0 {
			out[i] = 1
		}
	}
	return out
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkRegEquivalence verifies Eval and EvalBatch against predict for every
// row of X.
func checkRegEquivalence(t *testing.T, name string, plan *CompiledForest, predict func(x []float64) float64, X [][]float64) {
	t.Helper()
	batch := plan.EvalBatch(nil, X)
	for i, x := range X {
		want := predict(x)
		if got := plan.Eval(x); !bitsEqual(got, want) {
			t.Fatalf("%s: Eval(row %d) = %v, reference %v (bits %x vs %x)",
				name, i, got, want, math.Float64bits(got), math.Float64bits(want))
		}
		if !bitsEqual(batch[i], want) {
			t.Fatalf("%s: EvalBatch(row %d) = %v, reference %v", name, i, batch[i], want)
		}
	}
}

// compileChecked compiles m, whose deepest member is the deepest of trees:
// within heapMaxDepth edges it must compile, beyond it CompilePlan must
// refuse with errTooDeep, and then compileChecked returns nil.
func compileChecked(t *testing.T, name string, m PlanCompiler, trees ...*Tree) *CompiledForest {
	t.Helper()
	depth := 0
	for _, tr := range trees {
		depth = max(depth, tr.Depth()-1)
	}
	plan, err := m.CompilePlan()
	if depth > heapMaxDepth {
		if !errors.Is(err, errTooDeep) {
			t.Fatalf("%s: depth-%d plan compiled (err %v), want errTooDeep", name, depth, err)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("%s: depth-%d compile: %v", name, depth, err)
	}
	return plan
}

// checkClsEquivalence verifies Prob and Class against the reference
// classifier for every row of X.
func checkClsEquivalence(t *testing.T, name string, plan *CompiledForest, c Classifier, X [][]float64) {
	t.Helper()
	for i, x := range X {
		if got, want := plan.Prob(x), c.PredictProb(x); !bitsEqual(got, want) {
			t.Fatalf("%s: Prob(row %d) = %v, reference %v", name, i, got, want)
		}
		if got, want := plan.Class(x), c.PredictClass(x); got != want {
			t.Fatalf("%s: Class(row %d) = %d, reference %d", name, i, got, want)
		}
	}
}

// TestCompiledEquivalenceProperty fits every compilable family on random
// datasets across several seeds and sizes and demands bit-identical
// outputs from the compiled plans, on training rows and on fresh ones.
// Fits deeper than heapMaxDepth must be refused instead.
func TestCompiledEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(120)
		d := 3 + rng.Intn(6)
		x, y := randomDataset(rng, n, d)
		labels := binarizeAtZero(y)
		fresh, _ := randomDataset(rng, 50, d)
		rows := append(append([][]float64{}, x...), fresh...)

		tr := NewTree(TreeConfig{MaxDepth: 6 + rng.Intn(6), MinSamplesLeaf: 1 + rng.Intn(4)})
		if err := tr.Fit(x, y); err != nil {
			t.Fatalf("seed %d: tree fit: %v", seed, err)
		}
		if plan := compileChecked(t, "tree", tr, tr); plan != nil {
			checkRegEquivalence(t, "tree", plan, tr.Predict, rows)
			if plan.NumTrees() != 1 || plan.NumNodes() != tr.NumNodes() {
				t.Fatalf("seed %d: plan shape %d trees / %d nodes, want 1 / %d",
					seed, plan.NumTrees(), plan.NumNodes(), tr.NumNodes())
			}
		}

		tc := NewTreeClassifier(TreeConfig{MaxDepth: 8, MinSamplesLeaf: 2})
		if err := tc.Fit(x, labels); err != nil {
			t.Fatalf("seed %d: dtc fit: %v", seed, err)
		}
		if cplan := compileChecked(t, "tree-classifier", tc, &tc.Tree); cplan != nil {
			checkClsEquivalence(t, "tree-classifier", cplan, tc, rows)
		}

		fo := NewForest(ForestConfig{NumTrees: 12, Seed: seed, Tree: TreeConfig{MaxDepth: 7, MinSamplesLeaf: 2}})
		if err := fo.Fit(x, y); err != nil {
			t.Fatalf("seed %d: forest fit: %v", seed, err)
		}
		fplan := compileChecked(t, "forest", fo, fo.trees...)
		checkRegEquivalence(t, "forest", fplan, fo.Predict, rows)

		fc := NewForestClassifier(ForestConfig{NumTrees: 9, Seed: seed + 1, Tree: TreeConfig{MaxDepth: 6, MinSamplesLeaf: 2}})
		if err := fc.Fit(x, labels); err != nil {
			t.Fatalf("seed %d: rf classifier fit: %v", seed, err)
		}
		fcplan := compileChecked(t, "forest-classifier", fc, fc.trees...)
		checkClsEquivalence(t, "forest-classifier", fcplan, fc, rows)

		gb := NewGBRT(GBMConfig{NumTrees: 40, LearningRate: 0.1, MaxDepth: 4, Subsample: 0.7, Seed: seed})
		if err := gb.Fit(x, y); err != nil {
			t.Fatalf("seed %d: gbrt fit: %v", seed, err)
		}
		gplan, err := gb.CompilePlan()
		if err != nil {
			t.Fatalf("seed %d: gbrt compile: %v", seed, err)
		}
		checkRegEquivalence(t, "gbrt", gplan, gb.Predict, rows)

		gd := NewGBDT(GBMConfig{NumTrees: 35, LearningRate: 0.1, MaxDepth: 3, Subsample: 0.8, Seed: seed})
		if err := gd.Fit(x, labels); err != nil {
			t.Fatalf("seed %d: gbdt fit: %v", seed, err)
		}
		dplan, err := gd.CompilePlan()
		if err != nil {
			t.Fatalf("seed %d: gbdt compile: %v", seed, err)
		}
		checkClsEquivalence(t, "gbdt", dplan, gd, rows)
		checkRegEquivalence(t, "gbdt-raw", dplan, gd.decision, rows)
	}
}

// TestCompiledDegenerateTrees covers the layout edge cases: a single-leaf
// tree (constant target) and a chain (one sample split off per level)
// grown to exactly heapMaxDepth edges, which must compile, and unbounded,
// which must be refused.
func TestCompiledDegenerateTrees(t *testing.T) {
	// Single leaf: constant target admits no split.
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{5, 5, 5, 5}
	tr := NewTree(TreeConfig{})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Fatalf("constant fit grew %d nodes, want 1", tr.NumNodes())
	}
	plan, err := tr.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	checkRegEquivalence(t, "single-leaf", plan, tr.Predict, x)

	// Max-depth chain: strictly increasing target on one feature with
	// MinSamplesLeaf 1 grows a deep unbalanced spine.
	n := 64
	cx := make([][]float64, n)
	cy := make([]float64, n)
	for i := range cx {
		cx[i] = []float64{float64(i)}
		cy[i] = math.Exp(float64(i) / 7)
	}
	probe := append(append([][]float64{}, cx...),
		[]float64{-10}, []float64{0.5}, []float64{63.5}, []float64{1000})
	for _, maxDepth := range []int{heapMaxDepth + 1, 0} {
		chain := NewTree(TreeConfig{MaxDepth: maxDepth, MinSamplesLeaf: 1})
		if err := chain.Fit(cx, cy); err != nil {
			t.Fatal(err)
		}
		if chain.Depth() < heapMaxDepth+1 {
			t.Fatalf("chain fit depth %d, want a deep spine", chain.Depth())
		}
		cplan := compileChecked(t, "chain", chain, chain)
		if (cplan == nil) != (maxDepth == 0) {
			t.Fatalf("MaxDepth %d chain of depth %d: compiled %v", maxDepth, chain.Depth(), cplan != nil)
		}
		if cplan != nil {
			checkRegEquivalence(t, "max-depth-chain", cplan, chain.Predict, probe)
		}
	}
}

// splitPalette is the value set hand-built trees split on and probe rows
// are drawn from, so features land exactly ON thresholds (the reference
// walk's <= tie), on both zeros, and on the subnormals next to them.
var splitPalette = []float64{
	-2, -1, -0.5, -5e-324, math.Copysign(0, -1), 0, 5e-324, 0.5, 1, 2,
}

// handTree builds a fitted Tree whose deepest leaf sits exactly depth edges
// below the root and whose other branches stop early at random, in the
// node order Tree.grow emits (a node, its left subtree, its right subtree).
func handTree(rng *rand.Rand, depth, nFeat int) *Tree {
	t := &Tree{nFeatures: nFeat}
	var grow func(rem int, spine bool) int32
	grow = func(rem int, spine bool) int32 {
		me := int32(len(t.nodes))
		t.nodes = append(t.nodes, treeNode{left: -1, right: -1, value: rng.NormFloat64()})
		if rem == 0 || (!spine && rng.Intn(3) == 0) {
			return me
		}
		leftSpine := spine && rng.Intn(2) == 0
		left := grow(rem-1, leftSpine)
		right := grow(rem-1, spine && !leftSpine)
		nd := &t.nodes[me]
		nd.feature = rng.Intn(nFeat)
		nd.threshold = splitPalette[rng.Intn(len(splitPalette))]
		nd.left, nd.right = left, right
		return me
	}
	grow(depth, true)
	return t
}

// checkHeapLayout pins what the raw-pointer heap kernel takes on trust:
// every feature offset addresses a row of the transposed chunk buffer, and
// a dummy slot (never stepped right) sits over leaves that all hold the
// same value, so it cannot matter that the walk always leaves it leftward.
func checkHeapLayout(t *testing.T, p *CompiledForest) {
	t.Helper()
	w := 1 << p.heapDepth
	if len(p.hot) != p.NumTrees()*3*w {
		t.Fatalf("hot layout holds %d words for %d trees of depth %d", len(p.hot), p.NumTrees(), p.heapDepth)
	}
	for ti := 0; ti < p.NumTrees(); ti++ {
		blk := p.hot[ti*3*w : (ti+1)*3*w]
		for j := 1; j < w; j++ {
			if off := blk[w+j]; off%heapOffScale != 0 || off/heapOffScale >= uint64(max(p.nFeat, 1)) {
				t.Fatalf("tree %d slot %d: feature offset %d outside %d feature rows", ti, j, off, p.nFeat)
			}
			if int64(blk[j]) != math.MaxInt64 {
				continue
			}
			lo, hi := j, j // bottom-level span under slot j
			for lo < w {
				lo, hi = 2*lo, 2*hi+1
			}
			for l := lo; l <= hi; l++ {
				if blk[w+l] != blk[w+lo] {
					t.Fatalf("tree %d dummy slot %d covers differing leaves %d and %d", ti, j, lo, l)
				}
			}
		}
	}
}

// TestCompiledLayoutsAcrossDepths drives the heap layout and its cut-off
// with hand-built ensembles: deepest tree 0..7 edges (bare leaves through
// one past heapMaxDepth, which must be refused), members of mixed depth with
// leaves shallower than the deepest, ensemble sizes on every remainder of
// the four-tree interleave, -0.0 and tie thresholds, every batch length
// through two full chunks plus one (no full group, tails of 1-3), and a
// persisted round trip. Eval, EvalBatch and the reference walk must agree
// bit for bit throughout.
func TestCompiledLayoutsAcrossDepths(t *testing.T) {
	const nFeat = 5
	rng := rand.New(rand.NewSource(24))
	rows := make([][]float64, 2*EvalChunkSize+1)
	for i := range rows {
		rows[i] = make([]float64, nFeat)
		for k := range rows[i] {
			rows[i][k] = splitPalette[rng.Intn(len(splitPalette))]
		}
	}
	for depth := 0; depth <= heapMaxDepth+1; depth++ {
		for _, size := range []int{1, 3, 4, 6, 9} {
			trees := make([]*Tree, size)
			for i := range trees {
				trees[i] = handTree(rng, rng.Intn(depth+1), nFeat)
			}
			trees[rng.Intn(size)] = handTree(rng, depth, nFeat)

			gb := &GBRT{cfg: GBMConfig{LearningRate: 0.05}, base: 0.3, trees: trees}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(gb); err != nil {
				t.Fatal(err)
			}
			loaded := &GBRT{}
			if err := gob.NewDecoder(&buf).Decode(loaded); err != nil {
				t.Fatalf("depth %d: hand-built ensemble does not survive persistence: %v", depth, err)
			}
			fo := &Forest{trees: trees}
			for name, m := range map[string]interface {
				PlanCompiler
				Predict([]float64) float64
			}{"gbrt": gb, "gbrt-roundtrip": loaded, "forest": fo, "tree": trees[0]} {
				members := trees
				if name == "tree" {
					members = trees[:1]
				}
				plan := compileChecked(t, name, m, members...)
				if plan == nil {
					continue
				}
				if name != "tree" && plan.heapDepth != depth {
					t.Fatalf("depth %d %s: plan depth %d", depth, name, plan.heapDepth)
				}
				nodes := 0
				for _, tr := range members {
					nodes += tr.NumNodes()
				}
				if plan.NumTrees() != len(members) || plan.NumNodes() != nodes {
					t.Fatalf("depth %d %s: plan shape %d trees / %d nodes, want %d / %d",
						depth, name, plan.NumTrees(), plan.NumNodes(), len(members), nodes)
				}
				checkHeapLayout(t, plan)
				for n := 1; n <= len(rows); n++ {
					checkRegEquivalence(t, name, plan, m.Predict, rows[:n])
				}
			}
		}
	}
}

// TestCompiledNarrowInputs covers the two shapes whose rows are not the
// plan's width: a forest of bare leaves fitted on zero columns (nothing to
// pack, nothing to read) and rows shorter than the plan but long enough
// for every split on their path, which the reference walk accepts.
func TestCompiledNarrowInputs(t *testing.T) {
	leafOnly := &Tree{nFeatures: 0, nodes: []treeNode{{left: -1, right: -1, value: 1.25}}}
	plan, err := (&Forest{trees: []*Tree{leafOnly, leafOnly}}).CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	checkRegEquivalence(t, "zero-width", plan, leafOnly.Predict, make([][]float64, 7))

	stump := &Tree{nFeatures: 3, nodes: []treeNode{
		{feature: 0, threshold: 0.5, left: 1, right: 2},
		{left: -1, right: -1, value: -1},
		{left: -1, right: -1, value: 1},
	}}
	if plan, err = stump.CompilePlan(); err != nil {
		t.Fatal(err)
	}
	checkRegEquivalence(t, "short-rows", plan, stump.Predict,
		[][]float64{{0}, {1}, {0.5}, {2}, {-3}})
}

// TestCompileUnfitted verifies compiling unfitted models fails loudly
// instead of producing an empty plan.
func TestCompileUnfitted(t *testing.T) {
	if _, err := NewTree(TreeConfig{}).CompilePlan(); err == nil {
		t.Error("unfitted tree compiled without error")
	}
	if _, err := NewForest(ForestConfig{}).CompilePlan(); err == nil {
		t.Error("unfitted forest compiled without error")
	}
	if _, err := NewGBRT(GBMConfig{}).CompilePlan(); err == nil {
		t.Error("unfitted gbrt compiled without error")
	}
	if _, err := NewGBDT(GBMConfig{}).CompilePlan(); err == nil {
		t.Error("unfitted gbdt compiled without error")
	}
}

// TestCompiledPersistRoundTrip gob-encodes fitted models, decodes them, and
// demands the recompiled plans predict identically to the originals — the
// serving path loads models from disk and must compile transparently.
func TestCompiledPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := randomDataset(rng, 120, 5)
	labels := binarizeAtZero(y)
	probe, _ := randomDataset(rng, 40, 5)

	gb := NewGBRT(GBMConfig{NumTrees: 30, MaxDepth: 4, Subsample: 0.7, Seed: 3})
	if err := gb.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gb); err != nil {
		t.Fatal(err)
	}
	loaded := &GBRT{}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(loaded); err != nil {
		t.Fatal(err)
	}
	plan, err := loaded.CompilePlan()
	if err != nil {
		t.Fatalf("recompile after decode: %v", err)
	}
	checkRegEquivalence(t, "gbrt-roundtrip", plan, gb.Predict, probe)

	gd := NewGBDT(GBMConfig{NumTrees: 25, MaxDepth: 3, Subsample: 0.8, Seed: 4})
	if err := gd.Fit(x, labels); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(gd); err != nil {
		t.Fatal(err)
	}
	dloaded := &GBDT{}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(dloaded); err != nil {
		t.Fatal(err)
	}
	dplan, err := dloaded.CompilePlan()
	if err != nil {
		t.Fatalf("recompile after decode: %v", err)
	}
	checkClsEquivalence(t, "gbdt-roundtrip", dplan, gd, probe)

	fo := NewForest(ForestConfig{NumTrees: 10, Seed: 5, Tree: TreeConfig{MaxDepth: 6}})
	if err := fo.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(fo); err != nil {
		t.Fatal(err)
	}
	floaded := &Forest{}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(floaded); err != nil {
		t.Fatal(err)
	}
	fplan, err := floaded.CompilePlan()
	if err != nil {
		t.Fatalf("recompile after decode: %v", err)
	}
	checkRegEquivalence(t, "forest-roundtrip", fplan, fo.Predict, probe)
}
