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
// fitted ensemble once, at train or load time, into flat arrays shared by
// every tree. The layout of record is structure-of-arrays in preorder:
//
//	feature[]    int32   split feature per node (a valid index at leaves)
//	threshold[]  float64 split threshold per node; NaN at leaves
//	left[]       int32   left-child index (always i+1); leaves point at themselves
//	right[]      int32   right-child index; leaves point at themselves
//	leaf[]       float64 node value (the prediction at leaves)
//	roots[]      int32   root node index per tree
//	depth[]      int32   node depth of the deepest leaf per tree
//
// The walks never read those arrays directly. Compilation derives ONE hot
// layout from them, chosen by the plan's own deepest tree and by nothing
// else — there is no option:
//
// Shallow plans (every tree at most heapMaxDepth levels — the boosted
// ensembles, including the serving RM) get a heap-ordered layout. Every
// tree is padded to a perfect tree of the plan's depth D, so the children
// of slot j are slots 2j and 2j+1 and a walk is exactly D steps of
//
//	j = 2j + (key(x[feat]) > key)
//
// The comparison compiles to CMPQ/SETcc — plain arithmetic on the flags —
// and the child index needs no right pointer, no mask and no select. A leaf
// above the bottom level becomes a subtree of dummy slots whose key is
// MaxInt64 (never stepped right) over leaves that replicate its value. See
// buildHeap for the per-tree block and heapWalk for the batched step.
//
// Deep plans (random forests at depth 16, single CARTs at depth 10) would
// blow up exponentially under padding, so they keep the preorder order in a
// packed 16-byte record (cnode). There the self-looping leaves are what
// make the walk branch-free: a leaf's threshold is NaN (minimum key), so
// the step compare always sends the walk to right == itself — reaching a
// leaf is a fixed point, not an exit branch. Every walk runs for the
// (group-max) recorded depth unconditionally, and the child select is
// integer sort-key mask arithmetic (see rightMask).
//
// Both kernels compare int64 sort keys (see sortKey) rather than floats,
// interleave four independent load-compare-step chains for the
// out-of-order core to overlap, and leave the loop counter as the only
// branch in the hot loop.
//
// Correctness contract: a compiled plan reproduces the reference walk BIT
// FOR BIT. Padded steps hold the walk at (a copy of) the leaf the reference
// walk ends on, and the per-tree accumulation order, the shrinkage
// multiply, the forest mean, and the classification links are the exact
// floating-point expressions of the reference implementations, so swapping
// a plan in can never change a prediction (compile_test.go holds this
// property over random ensembles on both sides of the depth cut-off).

// errUnfitted is returned when compiling a model with no fitted trees.
var errUnfitted = errors.New("ml: cannot compile unfitted model")

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

// CompiledForest is a fitted tree ensemble lowered into flat
// structure-of-arrays evaluation plans. Build one with the CompilePlan
// method of Tree, Forest, GBRT, or GBDT; the zero value is not usable.
// Plans are immutable after compilation and safe for concurrent use.
type CompiledForest struct {
	feature   []int32
	threshold []float64
	left      []int32
	right     []int32
	leaf      []float64
	roots     []int32
	depth     []int32

	// Exactly one of the two hot layouts is built (see the package
	// comment): hot, walked heapDepth steps per tree, when every tree is at
	// most heapMaxDepth levels deep; nodes otherwise.
	heapDepth int
	hot       []uint64
	nodes     []cnode

	base    float64 // additive offset (boosting's initial estimate)
	scale   float64 // per-tree multiplier (boosting's learning rate)
	average bool    // divide the accumulated sum by NumTrees (forest mean)
	link    linkKind
	nFeat   int
}

// cnode is the packed per-node record of the deep-plan kernel: the three
// fields a walk step reads — threshold sort key, feature, right child — in
// one 16-byte record, so each visit touches a single cache line where the
// layout-of-record arrays would touch up to four. Left children are
// implicit (preorder: always the next node); leaves carry the minimum sort
// key and a self-referencing right child, so a padded walk step at a leaf
// always selects right == itself and stays put.
//
// The child select is mask arithmetic over the int64 keys (rightMask), not
// an if: with two arbitrary candidates (i+1 and right) an if is a select
// feeding a load address, which the compiler refuses to lower into a
// conditional move (cmd/compile's branchelim, issue 26306), leaving a
// data-dependent branch that mispredicts on every other node — tree split
// directions are coin flips by construction. The heap layout escapes this
// because its candidates differ by exactly the comparison result.
type cnode struct {
	key   int64
	feat  int32
	right int32
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

// thrKey lowers a split threshold into the sort-key domain: leaves (NaN
// threshold) take the minimum key so every finite feature compares
// greater and the walk holds at the leaf, and -0.0 normalizes to +0.0 so
// key ties match float ties.
func thrKey(f float64) int64 {
	if math.IsNaN(f) {
		return math.MinInt64
	}
	if f == 0 {
		f = 0 // -0.0 → +0.0
	}
	return sortKey(f)
}

// rightMask returns all ones when kt < kx — the feature strictly exceeds
// the threshold and the walk steps right — and zero otherwise, without
// branching. The subtraction trick alone would overflow across the key
// range, so the sign is corrected the standard way (Hacker's Delight
// §2-12).
func rightMask(kt, kx int64) int64 {
	d := kt - kx
	return (d ^ ((kt ^ kx) & (d ^ kt))) >> 63
}

// PlanCompiler is implemented by models that can lower themselves into a
// CompiledForest. The serving layer compiles through this interface and
// falls back to the model's own Predict when it is not implemented (SVMs,
// ridge).
type PlanCompiler interface {
	CompilePlan() (*CompiledForest, error)
}

// NumTrees returns the number of trees in the plan.
func (p *CompiledForest) NumTrees() int { return len(p.roots) }

// NumNodes returns the total node count across all trees.
func (p *CompiledForest) NumNodes() int { return len(p.feature) }

// NumFeatures returns the input width the plan was fitted on.
func (p *CompiledForest) NumFeatures() int { return p.nFeat }

// appendTree emits t's nodes in preorder so the left child of node i is
// node i+1, with leaves lowered to branch-free fixed points (NaN
// threshold, self-referencing children), and records the tree's depth.
func (p *CompiledForest) appendTree(t *Tree) error {
	if t == nil || len(t.nodes) == 0 {
		return errUnfitted
	}
	p.roots = append(p.roots, int32(len(p.feature)))
	maxDepth := int32(0)
	var emit func(n, d int32) int32
	emit = func(n, d int32) int32 {
		nd := &t.nodes[n]
		me := int32(len(p.feature))
		if nd.left < 0 {
			if d > maxDepth {
				maxDepth = d
			}
			p.feature = append(p.feature, 0)
			p.threshold = append(p.threshold, math.NaN())
			p.left = append(p.left, me)
			p.right = append(p.right, me)
			p.leaf = append(p.leaf, nd.value)
			return me
		}
		p.feature = append(p.feature, int32(nd.feature))
		p.threshold = append(p.threshold, nd.threshold)
		p.left = append(p.left, me+1)
		p.right = append(p.right, 0) // patched once the left subtree is laid out
		p.leaf = append(p.leaf, nd.value)
		emit(nd.left, d+1)
		p.right[me] = emit(nd.right, d+1)
		return me
	}
	emit(0, 0)
	p.depth = append(p.depth, maxDepth)
	return nil
}

// compileTrees lays out the ensemble members back to back.
func compileTrees(trees []*Tree, nFeat int) (*CompiledForest, error) {
	if len(trees) == 0 {
		return nil, errUnfitted
	}
	total := 0
	for _, t := range trees {
		if t == nil {
			return nil, errUnfitted
		}
		total += len(t.nodes)
	}
	p := &CompiledForest{
		feature:   make([]int32, 0, total),
		threshold: make([]float64, 0, total),
		left:      make([]int32, 0, total),
		right:     make([]int32, 0, total),
		leaf:      make([]float64, 0, total),
		roots:     make([]int32, 0, len(trees)),
		depth:     make([]int32, 0, len(trees)),
		scale:     1,
		nFeat:     nFeat,
	}
	for _, t := range trees {
		if err := p.appendTree(t); err != nil {
			return nil, err
		}
	}
	maxDepth := int32(0)
	for _, d := range p.depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth <= heapMaxDepth {
		p.buildHeap(int(maxDepth))
		return p, nil
	}
	p.nodes = make([]cnode, len(p.feature))
	for i := range p.nodes {
		p.nodes[i] = cnode{key: thrKey(p.threshold[i]), feat: p.feature[i], right: p.right[i]}
	}
	return p, nil
}

// heapMaxDepth is the deepest tree (in edges, root to leaf) a plan may hold
// and still take the heap-ordered layout. Padding costs 3·2^D words per
// tree whatever its shape: at 6 that is 1.5 KB a tree, the same order as
// the preorder record of a full tree; the depth-10 and depth-16 ensembles
// would pay 24 KB and 1.5 MB per tree for leaves that are mostly copies.
const heapMaxDepth = 6

// heapOffScale pre-scales a feature index into the byte offset of its row
// of sort keys in the transposed chunk buffer (see evalChunkHeap).
const heapOffScale = EvalChunkSize * 8

// buildHeap derives the heap-ordered hot layout for a plan whose deepest
// tree has depth D. Each tree becomes one block of 3·2^D words, indexed by
// the 1-based heap position j of a perfect tree (root 1, children of j at
// 2j and 2j+1):
//
//	blk[j]         1 ≤ j < 2^D      threshold sort key of internal slot j
//	blk[2^D+j]     1 ≤ j < 2^D      its feature, as a heapOffScale byte offset
//	blk[2^D+j]     2^D ≤ j < 2·2^D  value of bottom-level leaf j (float64 bits)
//
// so the feature offsets and the leaf values form one array indexed by j
// across the last step of a walk, and the kernel addresses everything with
// two base pointers and an index register. Words 0 and 2^D are unused. A
// leaf of the fitted tree above the bottom level is expanded into dummy
// slots (key MaxInt64: nothing compares greater, so the walk always
// steps left; feature 0) over bottom-level copies of its value — the walk
// always ends on the value the reference walk returns. A plan of bare
// leaves (D = 0) is three words a tree and a walk of no steps.
func (p *CompiledForest) buildHeap(d int) {
	p.heapDepth = d
	w := 1 << d
	p.hot = make([]uint64, len(p.roots)*3*w)
	for t, root := range p.roots {
		blk := p.hot[t*3*w : (t+1)*3*w]
		var fill func(n int32, j int)
		fill = func(n int32, j int) {
			switch {
			case j >= w:
				blk[w+j] = math.Float64bits(p.leaf[n])
			case p.left[n] == n: // fitted leaf above the bottom level
				blk[j] = math.MaxInt64
				fill(n, 2*j)
				fill(n, 2*j+1)
			default:
				blk[j] = uint64(thrKey(p.threshold[n]))
				blk[w+j] = uint64(p.feature[n]) * heapOffScale
				fill(p.left[n], 2*j)
				fill(p.right[n], 2*j+1)
			}
		}
		fill(root, 1)
	}
}

// CompilePlan lowers a fitted CART tree into a one-tree plan. The plan's
// Eval equals Tree.Predict exactly; Prob/Class match TreeClassifier.
func (t *Tree) CompilePlan() (*CompiledForest, error) {
	p, err := compileTrees([]*Tree{t}, t.nFeatures)
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
	nFeat := 0
	if len(f.trees) > 0 && f.trees[0] != nil {
		nFeat = f.trees[0].nFeatures
	}
	p, err := compileTrees(f.trees, nFeat)
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
	nFeat := 0
	if len(g.trees) > 0 && g.trees[0] != nil {
		nFeat = g.trees[0].nFeatures
	}
	p, err := compileTrees(g.trees, nFeat)
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
	nFeat := 0
	if len(g.trees) > 0 && g.trees[0] != nil {
		nFeat = g.trees[0].nFeatures
	}
	p, err := compileTrees(g.trees, nFeat)
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
// the CPU executes in parallel — over whichever hot layout the plan holds.
// Leaf contributions are still accumulated one tree at a time in ensemble
// order, so the floating-point result is exactly the reference walk's.
func (p *CompiledForest) Eval(x []float64) float64 {
	if p.hot != nil {
		return p.evalHeap(x)
	}
	nodes, leafv := p.nodes, p.leaf
	roots, depth := p.roots, p.depth
	acc := p.base
	t := 0
	for ; t+4 <= len(roots); t += 4 {
		i0, i1, i2, i3 := roots[t], roots[t+1], roots[t+2], roots[t+3]
		d := depth[t]
		if d2 := depth[t+1]; d2 > d {
			d = d2
		}
		if d2 := depth[t+2]; d2 > d {
			d = d2
		}
		if d2 := depth[t+3]; d2 > d {
			d = d2
		}
		for ; d > 0; d-- {
			// One packed load per lane; the child select is branchless
			// mask arithmetic over sort keys (see cnode), so the only
			// branch in the walk is the loop counter.
			n0, n1, n2, n3 := nodes[i0], nodes[i1], nodes[i2], nodes[i3]
			l0 := i0 + 1
			i0 = l0 ^ ((l0 ^ n0.right) & int32(rightMask(n0.key, sortKey(x[n0.feat]))))
			l1 := i1 + 1
			i1 = l1 ^ ((l1 ^ n1.right) & int32(rightMask(n1.key, sortKey(x[n1.feat]))))
			l2 := i2 + 1
			i2 = l2 ^ ((l2 ^ n2.right) & int32(rightMask(n2.key, sortKey(x[n2.feat]))))
			l3 := i3 + 1
			i3 = l3 ^ ((l3 ^ n3.right) & int32(rightMask(n3.key, sortKey(x[n3.feat]))))
		}
		acc += p.scale * leafv[i0]
		acc += p.scale * leafv[i1]
		acc += p.scale * leafv[i2]
		acc += p.scale * leafv[i3]
	}
	for ; t < len(roots); t++ {
		i := roots[t]
		for d := depth[t]; d > 0; d-- {
			nd := nodes[i]
			l := i + 1
			i = l ^ ((l ^ nd.right) & int32(rightMask(nd.key, sortKey(x[nd.feat]))))
		}
		acc += p.scale * leafv[i]
	}
	if p.average {
		acc /= float64(len(p.roots))
	}
	return acc
}

// EvalChunkSize is the sample-block width of EvalBatch's batched kernels.
// A chunk's rows are first packed into one flat scratch buffer of
// pre-transformed sort keys (row-major for the preorder kernel, transposed
// for the heap kernel): four per-sample slice headers would otherwise
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
	// Never empty, so the kernels can take the buffer's address even for a
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

// cnodeSize is the packed node record width, used to pre-scale node
// indices into byte offsets in the batched kernel.
const cnodeSize = unsafe.Sizeof(cnode{})

// evalChunk evaluates up to EvalChunkSize samples. Shallow plans go to
// evalChunkHeap; for the preorder layout rows are packed into
// the flat xb scratch, then groups of four samples walk the forest
// through the branch-free four-lane step — four independent load-compare
// chains for the out-of-order core to overlap. Each sample's accumulator
// takes its trees in ensemble order, so the floating-point result is
// exactly the reference walk's. Samples past the last full group of four
// — and whole chunks whose rows are narrower than the plan (reference
// semantics, including panics on rows too short for a split) — take the
// single-sample kernel.
//
// The walk addresses nodes and packed rows through unsafe base pointers
// and byte offsets rather than slice indexing: the live state (one node
// base, four row pointers, four offsets, the depth counter) then fits
// the register file, where the indexed form spills lane state to the
// stack and re-loads it inside the dependency chain. Combined with the
// sort-key mask select (see cnode) the loop body has no branch at all
// beyond the trip counter — no bounds checks, no float-compare branch,
// no mispredicts. Safety is structural, not checked: offsets are node
// indices produced by the plan compiler (appendTree), in range for
// nodes/leaf by construction, and feature ids are < nFeat == the packed
// row stride. The equivalence property suite pins this kernel
// bit-for-bit against the pure-Go reference walk.
func (p *CompiledForest) evalChunk(dst []float64, X [][]float64, xb []int64) {
	if p.hot != nil {
		p.evalChunkHeap(dst, X, xb)
		return
	}
	nodes, leafv := p.nodes, p.leaf
	roots, depth := p.roots, p.depth
	scale, stride := p.scale, p.nFeat
	ng := len(X) &^ 3 // samples covered by full four-lane groups
	if len(nodes) == 0 {
		ng = 0
	}
	for r := 0; r < ng; r++ {
		if len(X[r]) < stride {
			ng = 0 // short row: keep the reference per-row path for the chunk
			break
		}
		row := X[r][:stride]
		for k, v := range row {
			xb[r*stride+k] = sortKey(v)
		}
	}
	for g := 0; g+4 <= ng; g += 4 {
		nb := unsafe.Pointer(&nodes[0])
		x0 := unsafe.Pointer(&xb[g*stride])
		x1 := unsafe.Pointer(&xb[(g+1)*stride])
		x2 := unsafe.Pointer(&xb[(g+2)*stride])
		x3 := unsafe.Pointer(&xb[(g+3)*stride])
		a0, a1, a2, a3 := p.base, p.base, p.base, p.base
		for t, root := range roots {
			u := uintptr(root) * cnodeSize
			u0, u1, u2, u3 := u, u, u, u
			for d := depth[t]; d > 0; d-- {
				n0 := (*cnode)(unsafe.Add(nb, u0))
				n1 := (*cnode)(unsafe.Add(nb, u1))
				n2 := (*cnode)(unsafe.Add(nb, u2))
				n3 := (*cnode)(unsafe.Add(nb, u3))
				k0 := *(*int64)(unsafe.Add(x0, uintptr(n0.feat)*8))
				k1 := *(*int64)(unsafe.Add(x1, uintptr(n1.feat)*8))
				k2 := *(*int64)(unsafe.Add(x2, uintptr(n2.feat)*8))
				k3 := *(*int64)(unsafe.Add(x3, uintptr(n3.feat)*8))
				l0 := u0 + cnodeSize
				u0 = l0 ^ ((l0 ^ uintptr(n0.right)*cnodeSize) & uintptr(rightMask(n0.key, k0)))
				l1 := u1 + cnodeSize
				u1 = l1 ^ ((l1 ^ uintptr(n1.right)*cnodeSize) & uintptr(rightMask(n1.key, k1)))
				l2 := u2 + cnodeSize
				u2 = l2 ^ ((l2 ^ uintptr(n2.right)*cnodeSize) & uintptr(rightMask(n2.key, k2)))
				l3 := u3 + cnodeSize
				u3 = l3 ^ ((l3 ^ uintptr(n3.right)*cnodeSize) & uintptr(rightMask(n3.key, k3)))
			}
			a0 += scale * leafv[u0/cnodeSize]
			a1 += scale * leafv[u1/cnodeSize]
			a2 += scale * leafv[u2/cnodeSize]
			a3 += scale * leafv[u3/cnodeSize]
		}
		if p.average {
			n := float64(len(roots))
			a0 /= n
			a1 /= n
			a2 /= n
			a3 /= n
		}
		dst[g] = a0
		dst[g+1] = a1
		dst[g+2] = a2
		dst[g+3] = a3
	}
	for r := ng; r < len(X); r++ {
		dst[r] = p.Eval(X[r])
	}
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

// evalHeap is Eval over the heap-ordered layout (see buildHeap).
func (p *CompiledForest) evalHeap(x []float64) float64 {
	d, hot := p.heapDepth, p.hot
	w := uintptr(1) << d
	acc := p.base
	t, nt := uintptr(0), uintptr(len(p.roots))
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

// evalChunkHeap is evalChunk over the heap-ordered layout. Rows are packed
// TRANSPOSED — xb[feat*EvalChunkSize+row] — so the four lanes of a group
// read one feature row at constant displacements off a single base
// pointer, and the loop nest is tree-major over the whole chunk: a tree's
// block is pulled through the cache once per chunk, not once per group,
// with the per-row sums parked in a stack array between trees. Each row
// still takes its trees in ensemble order. As in the preorder kernel,
// samples past the last full group of four, and whole chunks holding a row
// narrower than the plan, take the single-sample walk.
func (p *CompiledForest) evalChunkHeap(dst []float64, X [][]float64, xb []int64) {
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
		for range p.roots {
			heapWalk(tb, unsafe.Pointer(&xb[0]), &acc, ng, p.heapDepth, p.scale)
			tb = unsafe.Add(tb, uintptr(3*8)<<p.heapDepth)
		}
		if p.average {
			n := float64(len(p.roots))
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

// heapWalk walks one tree block (tb, see buildHeap) for the first ng
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
// inlined into evalChunkHeap it spills it inside the chain.
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
