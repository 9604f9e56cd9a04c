// Package m5p implements M5P model trees — the machine-learning algorithm the
// paper selects for on-line software aging prediction.
//
// An M5P model is a binary decision tree whose inner nodes test
// "attribute <= threshold?" and whose leaves hold multiple linear regression
// models (Quinlan's M5, with the improvements described by Wang & Witten,
// "Inducing Model Trees for Continuous Classes", ECML 1997 — the paper's
// reference [16], as implemented in WEKA). The rationale, quoted from the
// paper, is that a highly non-linear global behaviour (heap resizes, garbage
// collection, phase changes in the workload) is often piecewise linear, and a
// model tree captures exactly that.
//
// The implementation follows the standard M5 pipeline:
//
//  1. Grow: split nodes greedily by maximising the standard deviation
//     reduction (SDR) of the target, stopping at a minimum instance count or
//     when the node's standard deviation is a small fraction of the global
//     one.
//  2. Fit: attach a linear model (internal/linreg, with M5-style attribute
//     elimination) to every node.
//  3. Prune: bottom-up, replace a subtree by its node's linear model whenever
//     the model's estimated error is no worse than the subtree's.
//  4. Smooth: at prediction time, filter the leaf prediction through the
//     linear models of its ancestors to avoid discontinuities between
//     adjacent leaves.
//
// Fit runs steps 1–3 as three passes, built for cheap on-line retraining
// without changing a trained bit. Grow sorts each attribute column once at
// the root and stably partitions the per-column orders down the tree, which
// yields exactly the order a per-node stable sort would; sibling subtrees
// grow concurrently, and each internal node keeps its ascending rows before
// partitioning them. Fit then puts every node's model fit, which needs only
// those rows and the attributes tested in the node's subtree, into one queue
// ordered largest first, and fits each on its rows in place
// (linreg.FitRows). Prune walks the fitted tree bottom-up and reads each node
// model's training error instead of re-evaluating it. Both concurrent passes
// fork through internal/fanout, and neither changes the result: the tree is
// a function of the dataset and the options alone, whatever GOMAXPROCS is.
//
// The package also exposes the structure of the learned tree (top splits,
// per-node attributes), which the paper uses as a root-cause hint: the
// attributes tested near the root are the resources most related to the
// coming failure.
package m5p

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"agingpred/internal/dataset"
	"agingpred/internal/fanout"
	"agingpred/internal/flattree"
	"agingpred/internal/linreg"
)

// DefaultMinInstances is the default minimum number of instances per leaf.
// The paper reports "using 10 instances to build every leaf" for all of its
// experiments.
const DefaultMinInstances = 10

// DefaultSmoothingK is the smoothing constant k in Quinlan's formula
// p' = (n·p + k·q)/(n + k); WEKA uses 15.
const DefaultSmoothingK = 15.0

// Options configures model-tree induction.
type Options struct {
	// MinInstances is the minimum number of instances per leaf (0 = 10).
	MinInstances int
	// MaxDepth caps tree depth (0 = 30).
	MaxDepth int
	// MinStdDevFraction stops splitting when a node's target standard
	// deviation falls below this fraction of the global standard deviation
	// (0 = 0.05).
	MinStdDevFraction float64
	// Unpruned disables the pruning step (WEKA's -N flag).
	Unpruned bool
	// NoSmoothing disables prediction smoothing (WEKA's -U flag).
	NoSmoothing bool
	// SmoothingK overrides the smoothing constant (0 = 15).
	SmoothingK float64
	// LeafMaxAttrs caps the number of attributes each node's linear model
	// may consider (0 = no cap). Large derived-feature sets (Table 2 has ~60
	// variables) benefit from a cap for training speed; accuracy is
	// essentially unchanged because the elimination step drops most of them
	// anyway.
	LeafMaxAttrs int
}

func (o Options) withDefaults() Options {
	if o.MinInstances <= 0 {
		o.MinInstances = DefaultMinInstances
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 30
	}
	if o.MinStdDevFraction <= 0 {
		o.MinStdDevFraction = 0.05
	}
	if o.SmoothingK <= 0 {
		o.SmoothingK = DefaultSmoothingK
	}
	return o
}

// Tree is a fitted M5P model tree.
type Tree struct {
	root  *node
	attrs []string
	opts  Options

	// TrainingInstances is the number of instances the tree was fitted on.
	TrainingInstances int
}

// node is one tree node. Every node (internal or leaf) carries a linear
// model: internal nodes need one for smoothing and as the pruning candidate.
type node struct {
	attr      int
	threshold float64
	left      *node
	right     *node

	leaf  bool
	model *linreg.Model

	n  int     // training instances reaching this node
	sd float64 // target standard deviation at this node
}

// Split describes one internal node test, used for root-cause inspection.
type Split struct {
	// Attr is the attribute name tested.
	Attr string
	// Threshold is the split value ("Attr <= Threshold?").
	Threshold float64
	// Depth is the node's depth (0 = root).
	Depth int
	// Instances is the number of training instances that reached the node.
	Instances int
}

// Fit builds an M5P model tree for the dataset.
func Fit(ds *dataset.Dataset, opts Options) (*Tree, error) {
	if ds == nil {
		return nil, errors.New("m5p: nil dataset")
	}
	if ds.Len() == 0 {
		return nil, errors.New("m5p: empty dataset")
	}
	opts = opts.withDefaults()
	if ds.Len() < opts.MinInstances {
		// Not enough data for even one leaf at the requested size: fall back
		// to whatever we have rather than failing, because on-line training
		// may legitimately start with very short executions.
		opts.MinInstances = ds.Len()
	}

	t := &Tree{
		attrs:             ds.Attrs(),
		opts:              opts,
		TrainingInstances: ds.Len(),
	}
	root := newBuilder(t, ds).grow(0, ds.Len(), 0)
	// The fits read only the dataset and the grown nodes: the builder's
	// column copies and sort orders are garbage from here on.
	if err := fitAll(ds, opts, root); err != nil {
		return nil, err
	}
	if !opts.Unpruned {
		prune(root.node)
	}
	t.root = root.node
	return t, nil
}

// builder holds the working state of one Fit. Every tree node owns one
// contiguous range [lo, hi) of the row arrays:
//
//   - rows holds the node's instances in ascending order, the order every
//     per-node sum and node model fit runs in (as if the node's instances
//     were a dataset of their own);
//   - order[col] holds them sorted by (value of col, row).
//
// The root sorts each column once. A split stably partitions every array's
// range into the children's [lo, mid) and [mid, hi); a stable partition of a
// (value, row) order is the (value, row) order of each part, exactly what a
// stable sort of the child's instances would give, so no node sorts again.
// Sibling subtrees own disjoint ranges and rows, so they are grown
// concurrently (internal/fanout).
type builder struct {
	t        *Tree
	ds       *dataset.Dataset
	n        int
	vals     []float64 // column-major attribute values: vals[col*n+row]
	y        []float64 // target of each row
	rows     []int32
	order    [][]int32
	goLeft   []bool  // per row: the split at its node sends it left
	buf      []int32 // sort and partition scratch, ranged like the arrays
	globalSD float64
}

func newBuilder(t *Tree, ds *dataset.Dataset) *builder {
	n, p := ds.Len(), ds.NumAttrs()
	b := &builder{
		t:        t,
		ds:       ds,
		n:        n,
		vals:     make([]float64, p*n),
		y:        ds.Targets(),
		rows:     make([]int32, n),
		order:    make([][]int32, p),
		goLeft:   make([]bool, n),
		buf:      make([]int32, n),
		globalSD: ds.TargetStats().StdDev,
	}
	for r := range b.rows {
		b.rows[r] = int32(r)
		for c, v := range ds.Row(r) {
			b.vals[c*n+r] = v
		}
	}
	block := make([]int32, p*n)
	sortColumns := func(from, to int, buf []int32) {
		for c := from; c < to; c++ {
			b.order[c] = block[c*n : (c+1)*n : (c+1)*n]
			copy(b.order[c], b.rows)
			sortRows(b.order[c], b.column(c), buf)
		}
	}
	join := fanout.Fork(func() { sortColumns(p/2, p, make([]int32, n)) })
	sortColumns(0, p/2, b.buf)
	join()
	return b
}

// column returns attribute column c, indexed by row.
func (b *builder) column(c int) []float64 { return b.vals[c*b.n : (c+1)*b.n] }

// grown is one node of the grown, not yet fitted tree, with what its model
// fit needs: the node's instances in ascending order (the order every node
// model fit runs in, as if they were a dataset of their own) and the model's
// candidate columns.
type grown struct {
	node        *node
	rows        []int32
	columns     []int // nil: every attribute
	left, right *grown
	err         error // the node model fit's error
}

// grow splits the subtree over the rows of [lo, hi) down to its leaves,
// without fitting any model, and returns it with each node's fit inputs.
//
// Following M5 (Quinlan) and M5' (Wang & Witten), a node's linear model may
// only use the attributes that appear in split tests within its unpruned
// subtree: leaves therefore get intercept-only (constant) models, and the
// richer linear models live at interior nodes, becoming leaf models when
// pruning collapses their subtree. This restriction is what keeps M5P's
// leaves from extrapolating wildly on inputs outside the training
// distribution.
//
// The single exception is a tree that never split at all (tiny or constant
// training data): its lone node falls back to a plain linear model over all
// attributes, which is what a degenerate model tree is.
func (b *builder) grow(lo, hi, depth int) *grown {
	rows := b.rows[lo:hi]
	n := &node{n: len(rows), leaf: true, sd: stdDevTarget(b.y, rows)}
	mid, asc, split := b.split(n, lo, hi, depth)
	if !split {
		// No split below partitions a leaf's range again: it stays ascending.
		g := &grown{node: n, rows: rows, columns: []int{}} // constant model
		if depth == 0 {
			g.columns = nil // degenerate tree: use every attribute
		}
		return g
	}
	var left *grown
	join := fanout.Fork(func() { left = b.grow(lo, mid, depth+1) })
	right := b.grow(mid, hi, depth+1)
	join()
	n.left, n.right = left.node, right.node
	return &grown{
		node:    n,
		rows:    asc,
		columns: unionAttrs(n.attr, left.columns, right.columns),
		left:    left,
		right:   right,
	}
}

// fitAll fits the model of every node of the grown tree. A node's fit
// depends on nothing but its own rows and columns, so the fits form one
// queue, largest node first (Graham's LPT rule: the longest fits never run
// last and alone). The caller drains it together with helpers forked through
// internal/fanout, whose process-wide bound still holds, and each fit writes
// its own node only, so the models are the same whoever fits them. When fits
// fail, the first failure in post-order (left subtree, right subtree, node)
// is reported.
func fitAll(ds *dataset.Dataset, opts Options, root *grown) error {
	var post []*grown
	var walk func(g *grown)
	walk = func(g *grown) {
		if g.left != nil {
			walk(g.left)
			walk(g.right)
		}
		post = append(post, g)
	}
	walk(root)
	queue := slices.Clone(post)
	slices.SortStableFunc(queue, func(x, y *grown) int { return len(y.rows) - len(x.rows) })

	var next atomic.Int32
	drain := func() {
		for i := int(next.Add(1) - 1); i < len(queue); i = int(next.Add(1) - 1) {
			g := queue[i]
			g.node.model, g.err = linreg.FitRows(ds, g.rows, linreg.Options{
				EliminateAttrs: true,
				MaxAttrs:       opts.LeafMaxAttrs,
				Columns:        g.columns,
			})
		}
	}
	var joins []func()
	for range min(runtime.GOMAXPROCS(0), len(queue)) - 1 {
		joins = append(joins, fanout.Fork(drain))
	}
	drain()
	for _, join := range joins {
		join()
	}

	for _, g := range post {
		switch {
		case g.err == nil:
		case g.left == nil:
			return fmt.Errorf("m5p: fitting leaf model: %w", g.err)
		default:
			return fmt.Errorf("m5p: fitting node model: %w", g.err)
		}
	}
	return nil
}

// prune replaces, bottom-up, every subtree of n by its node's linear model
// when the model's estimated error is no worse than the subtree's, and
// returns n's estimated error after pruning.
func prune(n *node) float64 {
	nodeErr := nodeError(n)
	if n.leaf {
		return nodeErr
	}
	leftErr, rightErr := prune(n.left), prune(n.right)
	subtreeErr := (leftErr*float64(n.left.n) + rightErr*float64(n.right.n)) / float64(n.n)
	if nodeErr <= subtreeErr {
		n.leaf = true
		n.left = nil
		n.right = nil
		return nodeErr
	}
	return subtreeErr
}

// nodeError is the estimated error of n's own linear model. The model's
// TrainingMAE was accumulated over exactly n's instances, in the order and
// with the arithmetic of the bound model's Predict (flattree.Tree), so it is
// the node model's MAE over the instances reaching n.
func nodeError(n *node) float64 {
	return estimatedError(n.model.TrainingMAE, n.n, n.model.NumAttrs())
}

// estimatedError applies M5's (n+v)/(n-v) pessimistic correction to a
// training error.
func estimatedError(mae float64, n, params int) float64 {
	v := params + 1
	if n <= v {
		return mae * 10 // heavily penalise models with more parameters than data
	}
	return mae * float64(n+v) / float64(n-v)
}

// split chooses n's split and partitions the row arrays of [lo, hi) around
// it, returning a copy of n's rows as they were, ascending, for n's model
// fit. It reports false, leaving n a leaf and the arrays untouched, when n is
// too small, too deep or too uniform to split, or when no split leaves
// MinInstances on both sides.
func (b *builder) split(n *node, lo, hi, depth int) (mid int, asc []int32, ok bool) {
	minInstances := b.t.opts.MinInstances
	if n.n < 2*minInstances || depth >= b.t.opts.MaxDepth {
		return 0, nil, false
	}
	if n.sd <= b.t.opts.MinStdDevFraction*b.globalSD {
		return 0, nil, false
	}
	attr, threshold, ok := b.bestSplit(lo, hi, n.sd)
	if !ok {
		return 0, nil, false
	}
	col := b.column(attr)
	nLeft := 0
	for _, r := range b.rows[lo:hi] {
		b.goLeft[r] = col[r] <= threshold
		if b.goLeft[r] {
			nLeft++
		}
	}
	if nLeft < minInstances || n.n-nLeft < minInstances {
		return 0, nil, false
	}
	n.leaf = false
	n.attr = attr
	n.threshold = threshold
	mid = lo + nLeft
	asc = slices.Clone(b.rows[lo:hi])
	b.partition(b.rows, lo, mid, hi)
	for _, ord := range b.order {
		b.partition(ord, lo, mid, hi)
	}
	return mid, asc, true
}

// bestSplit finds the (attribute, threshold) maximising SDR over the rows of
// [lo, hi), whose target standard deviation is parentSD. Shared logic with
// internal/regtree but kept local so the two packages stay independent (they
// are alternative models, not layers).
func (b *builder) bestSplit(lo, hi int, parentSD float64) (attr int, threshold float64, ok bool) {
	if parentSD == 0 {
		return 0, 0, false
	}
	minInstances := b.t.opts.MinInstances
	bestSDR := 0.0
	nTotal := float64(hi - lo)
	for c, ord := range b.order {
		sorted := ord[lo:hi]
		col := b.column(c)

		var leftSum, leftSumSq float64
		var rightSum, rightSumSq float64
		for _, i := range sorted {
			v := b.y[i]
			rightSum += v
			rightSumSq += v * v
		}
		for pos := 0; pos < len(sorted)-1; pos++ {
			v := b.y[sorted[pos]]
			leftSum += v
			leftSumSq += v * v
			rightSum -= v
			rightSumSq -= v * v

			cur := col[sorted[pos]]
			next := col[sorted[pos+1]]
			if cur == next {
				continue
			}
			nLeft := pos + 1
			nRight := len(sorted) - nLeft
			if nLeft < minInstances || nRight < minInstances {
				continue
			}
			sdLeft := stdDevFromSums(leftSum, leftSumSq, nLeft)
			sdRight := stdDevFromSums(rightSum, rightSumSq, nRight)
			sdr := parentSD - (float64(nLeft)/nTotal)*sdLeft - (float64(nRight)/nTotal)*sdRight
			if sdr > bestSDR {
				bestSDR = sdr
				attr = c
				threshold = (cur + next) / 2
				ok = true
			}
		}
	}
	return attr, threshold, ok
}

// partition stably moves the rows of a[lo:hi] that go left to a[lo:mid] and
// the others to a[mid:hi].
func (b *builder) partition(a []int32, lo, mid, hi int) {
	l, r := lo, mid
	for _, row := range a[lo:hi] {
		if b.goLeft[row] {
			a[l] = row // l never passes the element being read
			l++
		} else {
			b.buf[r] = row
			r++
		}
	}
	copy(a[mid:hi], b.buf[mid:hi])
}

// unionAttrs returns the ascending union of attr, a and b.
func unionAttrs(attr int, a, b []int) []int {
	out := append(append([]int{attr}, a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// sortRows sorts rows ascending by their value in col using a bottom-up
// merge sort over buf (stable, no per-comparison allocations), so equal
// values keep their order.
func sortRows(rows []int32, col []float64, buf []int32) {
	n := len(rows)
	src, dst := rows, buf[:n]
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if col[src[i]] <= col[src[j]] {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
				k++
			}
			k += copy(dst[k:hi], src[i:mid])
			copy(dst[k:hi], src[j:hi])
		}
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &rows[0] {
		copy(rows, src)
	}
}

func stdDevTarget(y []float64, rows []int32) float64 {
	if len(rows) < 2 {
		return 0
	}
	var sum, sumSq float64
	for _, i := range rows {
		v := y[i]
		sum += v
		sumSq += v * v
	}
	return stdDevFromSums(sum, sumSq, len(rows))
}

func stdDevFromSums(sum, sumSq float64, n int) float64 {
	if n < 1 {
		return 0
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance)
}

// Predict returns the model tree's prediction for a row described by attrs.
// The schema may be wider or reordered relative to the training schema as
// long as every training attribute is present.
func (t *Tree) Predict(attrs []string, row []float64) (float64, error) {
	if len(attrs) != len(row) {
		return 0, fmt.Errorf("m5p: %d attribute names for %d values", len(attrs), len(row))
	}
	colOf, err := t.bindSchema(attrs)
	if err != nil {
		return 0, err
	}
	return t.predictNode(t.root, attrs, row, colOf)
}

func (t *Tree) bindSchema(attrs []string) ([]int, error) {
	colOf := make([]int, len(t.attrs))
	for j, name := range t.attrs {
		found := -1
		for i, a := range attrs {
			if a == name {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("m5p: instance schema is missing attribute %q", name)
		}
		colOf[j] = found
	}
	return colOf, nil
}

// predictNode implements smoothed prediction: descend to the leaf, then
// filter the prediction back up through the ancestors' linear models.
func (t *Tree) predictNode(n *node, attrs []string, row []float64, colOf []int) (float64, error) {
	if n.leaf {
		return n.model.Predict(attrs, row)
	}
	child := n.right
	if row[colOf[n.attr]] <= n.threshold {
		child = n.left
	}
	childPred, err := t.predictNode(child, attrs, row, colOf)
	if err != nil {
		return 0, err
	}
	if t.opts.NoSmoothing {
		return childPred, nil
	}
	nodePred, err := n.model.Predict(attrs, row)
	if err != nil {
		return 0, err
	}
	k := t.opts.SmoothingK
	cn := float64(child.n)
	return (cn*childPred + k*nodePred) / (cn + k), nil
}

// Bind resolves the tree against the given row schema once and compiles it
// into the flattened layout of internal/flattree, node models inlined in
// their own term order. The schema may be wider or reordered as long as
// every training attribute is present.
func (t *Tree) Bind(attrs []string) (*flattree.Tree, error) {
	colOf, err := t.bindSchema(attrs)
	if err != nil {
		return nil, err
	}
	// A node model resolves its attribute names to the first column of that
	// name, as the model's own Predict does.
	colByName := make(map[string]int, len(attrs))
	for i := len(attrs) - 1; i >= 0; i-- {
		colByName[attrs[i]] = i
	}
	var b flattree.Builder
	if _, err := flatten(&b, t.root, colOf, colByName, -1); err != nil {
		return nil, err
	}
	return b.Build(len(attrs), t.opts.NoSmoothing, t.opts.SmoothingK)
}

// flatten appends n's subtree to b in preorder (children always at higher
// indices than their parent) and returns n's node index.
func flatten(b *flattree.Builder, n *node, colOf []int, colByName map[string]int, parent int32) (int32, error) {
	i := b.Node(parent, float64(n.n), n.model.Intercept)
	for j, name := range n.model.Attrs {
		c, ok := colByName[name]
		if !ok {
			return 0, fmt.Errorf("m5p: instance schema is missing attribute %q", name)
		}
		b.Term(n.model.Coefficients[j], c)
	}
	if n.leaf {
		return i, nil
	}
	l, err := flatten(b, n.left, colOf, colByName, i)
	if err != nil {
		return 0, err
	}
	r, err := flatten(b, n.right, colOf, colByName, i)
	if err != nil {
		return 0, err
	}
	b.Split(i, colOf[n.attr], n.threshold, l, r)
	return i, nil
}

// PredictDataset returns predictions for every instance of ds.
func (t *Tree) PredictDataset(ds *dataset.Dataset) ([]float64, error) {
	attrs := ds.Attrs()
	out := make([]float64, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		v, err := t.Predict(attrs, ds.Row(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return countLeaves(t.root) }

// InnerNodes returns the number of internal nodes.
func (t *Tree) InnerNodes() int { return countInner(t.root) }

// Depth returns the tree depth (a single leaf is depth 0).
func (t *Tree) Depth() int { return nodeDepth(t.root) }

// Attrs returns the training attribute names.
func (t *Tree) Attrs() []string { return append([]string(nil), t.attrs...) }

func countLeaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}

func countInner(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	return 1 + countInner(n.left) + countInner(n.right)
}

func nodeDepth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := nodeDepth(n.left), nodeDepth(n.right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}

// TopSplits returns the splits of the first maxDepth levels of the tree in
// breadth-first order. The paper inspects exactly these to hint at the root
// cause of the coming failure (e.g. "the root tests system memory; below
// 1306 MB the next test is Tomcat memory").
func (t *Tree) TopSplits(maxDepth int) []Split {
	var out []Split
	type queued struct {
		n     *node
		depth int
	}
	queue := []queued{{t.root, 0}}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if q.n == nil || q.n.leaf || q.depth >= maxDepth {
			continue
		}
		out = append(out, Split{
			Attr:      t.attrs[q.n.attr],
			Threshold: q.n.threshold,
			Depth:     q.depth,
			Instances: q.n.n,
		})
		queue = append(queue, queued{q.n.left, q.depth + 1}, queued{q.n.right, q.depth + 1})
	}
	return out
}

// SplitAttributeCounts returns, for every attribute that appears in at least
// one split, the number of internal nodes testing it. Attributes that
// dominate the splits are the strongest root-cause candidates.
func (t *Tree) SplitAttributeCounts() map[string]int {
	counts := make(map[string]int)
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil || n.leaf {
			return
		}
		counts[t.attrs[n.attr]]++
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return counts
}

// String renders the model tree in WEKA-like indented form, with the linear
// model of every leaf.
func (t *Tree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "M5P model tree (%d inner nodes, %d leaves, %d training instances)\n",
		t.InnerNodes(), t.Leaves(), t.TrainingInstances)
	leafID := 0
	t.writeNode(&b, t.root, 0, &leafID)
	return b.String()
}

func (t *Tree) writeNode(b *strings.Builder, n *node, indent int, leafID *int) {
	pad := strings.Repeat("  ", indent)
	if n.leaf {
		*leafID++
		fmt.Fprintf(b, "%sLM%d (n=%d): %s = %s\n", pad, *leafID, n.n, "target", n.model.String())
		return
	}
	fmt.Fprintf(b, "%s%s <= %.6g (n=%d)\n", pad, t.attrs[n.attr], n.threshold, n.n)
	t.writeNode(b, n.left, indent+1, leafID)
	fmt.Fprintf(b, "%s%s > %.6g\n", pad, t.attrs[n.attr], n.threshold)
	t.writeNode(b, n.right, indent+1, leafID)
}
