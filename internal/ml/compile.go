package ml

import (
	"errors"
	"math"
	"sync"
	"unsafe"
)

// Compiled forest inference. The fitted tree ensembles answer every online
// query GAugur serves, and the reference walk (Tree.Predict) pays for its
// generality on every node visit: each tree is its own heap object, each
// node a 32-byte array-of-structs entry, and each ensemble member costs a
// method call plus a slice-header load before the first comparison runs.
// Worse, the walk's exit condition and direction are both data-dependent
// branches the hardware cannot predict, so an ensemble evaluation is one
// long serial chain of loads and mispredictions. CompiledForest lowers a
// fitted ensemble once, at train or load time, into one flat heap-ordered
// array shared by every tree. Every tree is padded to a perfect tree of the
// plan's depth D, so the children of slot j are slots 2j and 2j+1 and a
// walk is exactly D steps of
//
//	j = 2j + (key(x[feat]) > key)
//
// The comparison compiles to CMPQ/SETcc — plain arithmetic on the flags —
// and the child index needs no right pointer, no mask and no select. A leaf
// above the bottom level becomes a subtree of dummy slots whose key is
// MaxInt64 (never stepped right) over leaves that replicate its value. See
// heapBlock for the per-tree block and heapWalk for the batched step.
//
// Padding grows as 2^D whatever a tree's shape, so a plan compiles only
// when its deepest tree is at most heapMaxDepth edges — the boosted
// ensembles GAugur serves plan at depth 4. Deeper models (CARTs and random
// forests fitted with MaxDepth 10 or 16) are refused with errTooDeep and
// answer through their reference walk.
//
// The kernel compares int64 sort keys (see sortKey) rather than floats,
// interleaves four independent load-compare-step chains for the
// out-of-order core to overlap, and leaves the loop counter as the only
// branch in the hot loop.
//
// Correctness contract: a compiled plan reproduces the reference walk BIT
// FOR BIT. Padded steps hold the walk at (a copy of) the leaf the reference
// walk ends on, and the per-tree accumulation order, the shrinkage
// multiply, the forest mean, and the classification links are the exact
// floating-point expressions of the reference implementations, so swapping
// a plan in can never change a prediction (compile_test.go holds this
// property over random ensembles at every depth up to the cut-off, and
// FuzzCompiledForest searches for inputs that break it).

// errUnfitted is returned when compiling a model with no fitted trees.
var errUnfitted = errors.New("ml: cannot compile unfitted model")

// errTooDeep is returned when an ensemble's deepest tree exceeds
// heapMaxDepth; the caller keeps the model's reference walk.
var errTooDeep = errors.New("ml: tree too deep to compile")

// linkKind maps the raw ensemble output to a class probability.
type linkKind int

const (
	// linkIdentity leaves the raw output untouched (regressors).
	linkIdentity linkKind = iota
	// linkClamp01 clamps the raw output into [0,1] (CART / forest
	// classifiers, whose leaves already hold positive-class fractions).
	linkClamp01
	// linkSigmoid squashes additive log-odds (GBDT).
	linkSigmoid
)

// CompiledForest is a fitted tree ensemble lowered into one flat
// heap-ordered evaluation plan. Build one with the CompilePlan method of
// Tree, Forest, GBRT, or GBDT; the zero value is not usable. Plans are
// immutable after compilation and safe for concurrent use.
type CompiledForest struct {
	// hot holds one heapBlock of 3·2^heapDepth words per tree, in
	// ensemble order; a walk takes heapDepth steps per tree.
	heapDepth int
	hot       []uint64
	nTrees    int
	nNodes    int // fitted nodes across all trees, before padding

	base    float64 // additive offset (boosting's initial estimate)
	scale   float64 // per-tree multiplier (boosting's learning rate)
	average bool    // divide the accumulated sum by NumTrees (forest mean)
	link    linkKind
	nFeat   int
}

// sortKey maps a float64 onto an int64 whose signed order equals the
// float order for all finite values (flip the lower 63 bits of negative
// values so more-negative floats map to more-negative ints). Comparing
// keys with integer arithmetic is what makes the walks branch-free.
// The mapping is exact — key(x) <= key(t) iff x <= t — for finite x and
// t with one caveat handled at compile time: -0.0 and +0.0 get distinct
// keys, so thresholds normalize -0.0 to +0.0 (features need no fixup;
// -0.0 <= key(t) agrees with the float compare once t is normalized).
// NaN features are unordered in float compares (always stepping right)
// but ordered by the key transform; encoder output is always finite, so
// the kernel never sees one.
func sortKey(f float64) int64 {
	b := int64(math.Float64bits(f))
	return b ^ int64(uint64(b>>63)>>1)
}

// thrKey lowers a split threshold into the sort-key domain. A NaN
// threshold (Tree.validate accepts one in a decoded model) takes the
// minimum key: x <= NaN is false, so the reference walk always steps
// right, and every non-NaN feature key compares greater. -0.0 normalizes
// to +0.0 so key ties match float ties.
func thrKey(f float64) int64 {
	if math.IsNaN(f) {
		return math.MinInt64
	}
	if f == 0 {
		f = 0 // -0.0 → +0.0
	}
	return sortKey(f)
}

// PlanCompiler is implemented by models that can lower themselves into a
// CompiledForest. The serving layer compiles through this interface and
// falls back to the model's own Predict when it is not implemented (SVMs,
// ridge) or CompilePlan fails (unfitted, or deeper than heapMaxDepth).
type PlanCompiler interface {
	CompilePlan() (*CompiledForest, error)
}

// NumTrees returns the number of trees in the plan.
func (p *CompiledForest) NumTrees() int { return p.nTrees }

// NumNodes returns the total fitted node count across all trees.
func (p *CompiledForest) NumNodes() int { return p.nNodes }

// NumFeatures returns the input width the plan was fitted on.
func (p *CompiledForest) NumFeatures() int { return p.nFeat }

// heapMaxDepth is the deepest tree (in edges, root to leaf) a plan may
// hold. Padding costs 3·2^D words per tree whatever its shape: at 6 that
// is 1.5 KB a tree, while the depth-9 and depth-15 trees of a MaxDepth 10
// CART or MaxDepth 16 forest would pay 12 KB and 768 KB for leaves that
// are mostly copies.
const heapMaxDepth = 6

// heapOffScale pre-scales a feature index into the byte offset of its row
// of sort keys in the transposed chunk buffer (see evalChunk).
const heapOffScale = EvalChunkSize * 8

// compileTrees lays the ensemble members out back to back, each padded to
// the depth of the deepest one.
func compileTrees(trees []*Tree) (*CompiledForest, error) {
	if len(trees) == 0 {
		return nil, errUnfitted
	}
	d, nodes := 0, 0
	for _, t := range trees {
		if t == nil || len(t.nodes) == 0 {
			return nil, errUnfitted
		}
		d = max(d, t.Depth()-1)
		nodes += len(t.nodes)
	}
	if d > heapMaxDepth {
		return nil, errTooDeep
	}
	w := 1 << d
	p := &CompiledForest{
		heapDepth: d,
		hot:       make([]uint64, len(trees)*3*w),
		nTrees:    len(trees),
		nNodes:    nodes,
		scale:     1,
		nFeat:     trees[0].nFeatures,
	}
	for i, t := range trees {
		heapBlock(p.hot[i*3*w:(i+1)*3*w], t, w)
	}
	return p, nil
}

// heapBlock fills blk, the 3·w words of one tree in a plan of depth D
// (w = 2^D), indexed by the 1-based heap position j of a perfect tree
// (root 1, children of j at 2j and 2j+1):
//
//	blk[j]       1 ≤ j < w    threshold sort key of internal slot j
//	blk[w+j]     1 ≤ j < w    its feature, as a heapOffScale byte offset
//	blk[w+j]     w ≤ j < 2w   value of bottom-level leaf j (float64 bits)
//
// so the feature offsets and the leaf values form one array indexed by j
// across the last step of a walk, and the kernel addresses everything with
// two base pointers and an index register. Words 0 and w are unused. A
// leaf of the fitted tree above the bottom level is expanded into dummy
// slots (key MaxInt64: nothing compares greater, so the walk always
// steps left; feature 0) over bottom-level copies of its value — the walk
// always ends on the value the reference walk returns. A plan of bare
// leaves (D = 0) is three words a tree and a walk of no steps.
func heapBlock(blk []uint64, t *Tree, w int) {
	var fill func(n int32, j int)
	fill = func(n int32, j int) {
		nd := &t.nodes[n]
		switch {
		case j >= w:
			blk[w+j] = math.Float64bits(nd.value)
		case nd.left < 0: // fitted leaf above the bottom level
			blk[j] = math.MaxInt64
			fill(n, 2*j)
			fill(n, 2*j+1)
		default:
			blk[j] = uint64(thrKey(nd.threshold))
			blk[w+j] = uint64(nd.feature) * heapOffScale
			fill(nd.left, 2*j)
			fill(nd.right, 2*j+1)
		}
	}
	fill(0, 1)
}

// CompilePlan lowers a fitted CART tree into a one-tree plan. The plan's
// Eval equals Tree.Predict exactly; Prob/Class match TreeClassifier.
func (t *Tree) CompilePlan() (*CompiledForest, error) {
	p, err := compileTrees([]*Tree{t})
	if err != nil {
		return nil, err
	}
	p.link = linkClamp01
	return p, nil
}

// CompilePlan lowers a fitted random forest. Eval reproduces
// Forest.Predict's sum-then-mean exactly; Prob/Class match
// ForestClassifier.
func (f *Forest) CompilePlan() (*CompiledForest, error) {
	p, err := compileTrees(f.trees)
	if err != nil {
		return nil, err
	}
	p.average = true
	p.link = linkClamp01
	return p, nil
}

// CompilePlan lowers a fitted GBRT: base + sum of shrunken trees, the exact
// expression of GBRT.Predict.
func (g *GBRT) CompilePlan() (*CompiledForest, error) {
	p, err := compileTrees(g.trees)
	if err != nil {
		return nil, err
	}
	p.base = g.base
	p.scale = g.cfg.LearningRate
	return p, nil
}

// CompilePlan lowers a fitted GBDT. Eval returns the raw additive log-odds
// (GBDT.decision); Prob/Class apply the logistic link exactly as
// GBDT.PredictProb / PredictClass do.
func (g *GBDT) CompilePlan() (*CompiledForest, error) {
	p, err := compileTrees(g.trees)
	if err != nil {
		return nil, err
	}
	p.base = g.base
	p.scale = g.cfg.LearningRate
	p.link = linkSigmoid
	return p, nil
}

// Eval traverses every tree for one sample and returns the raw ensemble
// output (degradation for regressors, log-odds for GBDT, leaf-fraction
// mean for classification forests). It allocates nothing.
//
// Trees are walked four at a time — four independent dependency chains
// the CPU executes in parallel. Leaf contributions are still accumulated
// one tree at a time in ensemble order, so the floating-point result is
// exactly the reference walk's.
func (p *CompiledForest) Eval(x []float64) float64 {
	d, hot := p.heapDepth, p.hot
	w := uintptr(1) << d
	acc := p.base
	t, nt := uintptr(0), uintptr(p.nTrees)
	for ; t+4 <= nt; t += 4 {
		b0 := hot[t*3*w : (t+1)*3*w]
		b1 := hot[(t+1)*3*w : (t+2)*3*w]
		b2 := hot[(t+2)*3*w : (t+3)*3*w]
		b3 := hot[(t+3)*3*w : (t+4)*3*w]
		j0, j1, j2, j3 := uintptr(1), uintptr(1), uintptr(1), uintptr(1)
		for k := d; k > 0; k-- {
			j0 = 2*j0 + gt(sortKey(x[b0[w+j0]/heapOffScale]), int64(b0[j0]))
			j1 = 2*j1 + gt(sortKey(x[b1[w+j1]/heapOffScale]), int64(b1[j1]))
			j2 = 2*j2 + gt(sortKey(x[b2[w+j2]/heapOffScale]), int64(b2[j2]))
			j3 = 2*j3 + gt(sortKey(x[b3[w+j3]/heapOffScale]), int64(b3[j3]))
		}
		acc += p.scale * math.Float64frombits(b0[w+j0])
		acc += p.scale * math.Float64frombits(b1[w+j1])
		acc += p.scale * math.Float64frombits(b2[w+j2])
		acc += p.scale * math.Float64frombits(b3[w+j3])
	}
	for ; t < nt; t++ {
		blk := hot[t*3*w : (t+1)*3*w]
		j := uintptr(1)
		for k := d; k > 0; k-- {
			j = 2*j + gt(sortKey(x[blk[w+j]/heapOffScale]), int64(blk[j]))
		}
		acc += p.scale * math.Float64frombits(blk[w+j])
	}
	if p.average {
		acc /= float64(nt)
	}
	return acc
}

// gt is the whole child select of the heap walk: 1 when the feature key
// exceeds the threshold key (step right), else 0. The compiler lowers it to
// CMPQ/SETcc/MOVBLZX, so it is arithmetic, not a branch — a conditional
// MOVE into a load address is what the compiler will not emit, a
// conditional SET added to one it will.
func gt(kx, key int64) uintptr {
	if kx > key {
		return 1
	}
	return 0
}

// EvalChunkSize is the sample-block width of EvalBatch's batched kernel.
// A chunk's rows are first packed into one flat, transposed scratch buffer
// of pre-transformed sort keys: four per-sample slice headers would otherwise
// occupy eight registers in the four-lane walk and push the register
// allocator into spilling lane state onto the stack, and the per-access
// float-to-key transform is hoisted out of the walk entirely — each row is
// transformed once, then visited ~NumTrees times. Sixteen samples keep the
// packed buffer a few KB, L1-resident beside the nodes being walked.
const EvalChunkSize = 16

// chunkScratch recycles the packed row buffers across EvalBatch calls so
// the steady-state batch path allocates nothing.
var chunkScratch = sync.Pool{
	New: func() any { return new([]int64) },
}

// EvalBatch evaluates every row of X, writing the raw outputs into dst
// (grown only when too small) and returning it. Rows are processed in
// chunks of EvalChunkSize; outputs are bit-identical to per-row Eval. In
// steady state (cap(dst) >= len(X)) the call allocates nothing.
func (p *CompiledForest) EvalBatch(dst []float64, X [][]float64) []float64 {
	if cap(dst) < len(X) {
		dst = make([]float64, len(X))
	}
	dst = dst[:len(X)]
	bp := chunkScratch.Get().(*[]int64)
	// Never empty, so the kernel can take the buffer's address even for a
	// (decoded) plan of bare leaves fitted on zero columns.
	if need := EvalChunkSize * max(p.nFeat, 1); cap(*bp) < need {
		*bp = make([]int64, need)
	}
	xb := (*bp)[:cap(*bp)]
	for base := 0; base < len(X); base += EvalChunkSize {
		end := base + EvalChunkSize
		if end > len(X) {
			end = len(X)
		}
		p.evalChunk(dst[base:end], X[base:end], xb)
	}
	chunkScratch.Put(bp)
	return dst
}

// evalChunk evaluates up to EvalChunkSize samples. Rows are packed
// TRANSPOSED — xb[feat*EvalChunkSize+row] — so the four lanes of a group
// read one feature row at constant displacements off a single base
// pointer, and the loop nest is tree-major over the whole chunk: a tree's
// block is pulled through the cache once per chunk, not once per group,
// with the per-row sums parked in a stack array between trees. Each row
// still takes its trees in ensemble order, so the floating-point result is
// exactly the reference walk's. Samples past the last full group of four —
// and whole chunks holding a row narrower than the plan (reference
// semantics, including panics on rows too short for a split) — take the
// single-sample walk.
func (p *CompiledForest) evalChunk(dst []float64, X [][]float64, xb []int64) {
	stride := p.nFeat
	ng := len(X) &^ 3 // samples covered by full four-lane groups
	for r := 0; r < ng; r++ {
		if len(X[r]) < stride {
			ng = 0 // short row: keep the reference per-row path for the chunk
			break
		}
		for k, v := range X[r][:stride] {
			xb[k*EvalChunkSize+r] = sortKey(v)
		}
	}
	if ng > 0 {
		var acc [EvalChunkSize]float64
		for r := range acc {
			acc[r] = p.base
		}
		tb := unsafe.Pointer(&p.hot[0])
		for range p.nTrees {
			heapWalk(tb, unsafe.Pointer(&xb[0]), &acc, ng, p.heapDepth, p.scale)
			tb = unsafe.Add(tb, uintptr(3*8)<<p.heapDepth)
		}
		if p.average {
			n := float64(p.nTrees)
			for r := range acc {
				acc[r] /= n
			}
		}
		copy(dst, acc[:ng])
	}
	for r := ng; r < len(X); r++ {
		dst[r] = p.Eval(X[r])
	}
}

// heapWalk walks one tree block (tb, see heapBlock) for the first ng
// samples (a multiple of four) of a transposed chunk and adds the scaled
// leaf each lands on to its accumulator, four samples at a time. A lane
// step is two dependent loads (feature offset, then that feature's key),
// the compare-and-add, and nothing else; all addressing is raw pointers
// because bounds checks would sit inside the dependency chain and the
// indices are in range by construction: 2^D ≤ j < 2·2^D after D steps
// whatever the keys compare to, and feature offsets are < nFeat rows of
// the chunk buffer. It is a separate non-inlined function on purpose: with
// little but the four lane indices and three bases live, the register
// allocator keeps the lane state in registers across the depth loop, where
// inlined into evalChunk it spills it inside the chain.
//
//go:noinline
func heapWalk(tb, xg unsafe.Pointer, acc *[EvalChunkSize]float64, ng, depth int, scale float64) {
	ob := unsafe.Add(tb, uintptr(8)<<depth) // feature offsets, then leaf values
	ag := unsafe.Pointer(acc)
	for ; ng > 0; ng -= 4 {
		j0, j1, j2, j3 := uintptr(1), uintptr(1), uintptr(1), uintptr(1)
		for d := depth; d > 0; d-- {
			j0 = 2*j0 + gt(*(*int64)(unsafe.Add(xg, *(*uint64)(unsafe.Add(ob, j0*8)))), *(*int64)(unsafe.Add(tb, j0*8)))
			j1 = 2*j1 + gt(*(*int64)(unsafe.Add(xg, *(*uint64)(unsafe.Add(ob, j1*8))+8)), *(*int64)(unsafe.Add(tb, j1*8)))
			j2 = 2*j2 + gt(*(*int64)(unsafe.Add(xg, *(*uint64)(unsafe.Add(ob, j2*8))+16)), *(*int64)(unsafe.Add(tb, j2*8)))
			j3 = 2*j3 + gt(*(*int64)(unsafe.Add(xg, *(*uint64)(unsafe.Add(ob, j3*8))+24)), *(*int64)(unsafe.Add(tb, j3*8)))
		}
		a := (*[4]float64)(ag)
		a[0] += scale * *(*float64)(unsafe.Add(ob, j0*8))
		a[1] += scale * *(*float64)(unsafe.Add(ob, j1*8))
		a[2] += scale * *(*float64)(unsafe.Add(ob, j2*8))
		a[3] += scale * *(*float64)(unsafe.Add(ob, j3*8))
		xg, ag = unsafe.Add(xg, 4*8), unsafe.Add(ag, 4*8)
	}
}

// Prob maps Eval through the plan's classification link: P(class = 1 | x).
func (p *CompiledForest) Prob(x []float64) float64 {
	raw := p.Eval(x)
	switch p.link {
	case linkSigmoid:
		return sigmoid(raw)
	case linkClamp01:
		return clamp(raw, 0, 1)
	}
	return raw
}

// Class thresholds Prob at 0.5, matching every reference classifier.
func (p *CompiledForest) Class(x []float64) int {
	if p.Prob(x) >= 0.5 {
		return 1
	}
	return 0
}

var (
	_ PlanCompiler = (*Tree)(nil)
	_ PlanCompiler = (*Forest)(nil)
	_ PlanCompiler = (*GBRT)(nil)
	_ PlanCompiler = (*GBDT)(nil)
)
