// Package regtree implements a plain regression tree with constant-valued
// leaves (CART-style, using the same standard-deviation-reduction split
// criterion as M5).
//
// The paper's preliminary study (reference [14], Alonso et al., ICAS 2009)
// compared Linear Regression, Decision Trees and M5P before settling on M5P;
// this package provides that "decision tree" comparator so the repository can
// reproduce the three-way comparison as an ablation, in addition to the
// two-way comparison reported in the DSN 2010 tables.
package regtree

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"agingpred/internal/dataset"
	"agingpred/internal/flattree"
)

// Options configures tree induction.
type Options struct {
	// MinInstances is the minimum number of instances a leaf may hold.
	// Zero means 10, matching the leaf size the paper reports for its M5P
	// models ("using 10 instances to build every leaf").
	MinInstances int
	// MaxDepth caps the tree depth (0 = 30).
	MaxDepth int
	// MinStdDevFraction stops splitting when a node's target standard
	// deviation falls below this fraction of the full training set's
	// standard deviation. Zero means 0.05 (the M5 default).
	MinStdDevFraction float64
}

func (o Options) withDefaults() Options {
	if o.MinInstances <= 0 {
		o.MinInstances = 10
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 30
	}
	if o.MinStdDevFraction <= 0 {
		o.MinStdDevFraction = 0.05
	}
	return o
}

// Tree is a fitted regression tree.
type Tree struct {
	root  *node
	attrs []string
	opts  Options

	// TrainingInstances is the number of instances the tree was fitted on.
	TrainingInstances int
}

type node struct {
	// Internal nodes.
	attr      int     // attribute column index tested by this node
	threshold float64 // test is "value <= threshold ? left : right"
	left      *node
	right     *node

	// Leaves.
	leaf  bool
	value float64 // mean target of the training instances reaching the leaf

	n int // training instances reaching this node
}

// Fit builds a regression tree for the dataset.
func Fit(ds *dataset.Dataset, opts Options) (*Tree, error) {
	if ds == nil {
		return nil, errors.New("regtree: nil dataset")
	}
	if ds.Len() == 0 {
		return nil, errors.New("regtree: empty dataset")
	}
	opts = opts.withDefaults()
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	globalSD := ds.TargetStats().StdDev
	t := &Tree{
		attrs:             ds.Attrs(),
		opts:              opts,
		TrainingInstances: ds.Len(),
	}
	t.root = build(ds, idx, 0, opts, globalSD)
	return t, nil
}

// build recursively grows the tree over the instances in idx.
func build(ds *dataset.Dataset, idx []int, depth int, opts Options, globalSD float64) *node {
	n := &node{n: len(idx), leaf: true, value: meanTarget(ds, idx)}
	if len(idx) < 2*opts.MinInstances || depth >= opts.MaxDepth {
		return n
	}
	if stdDevTarget(ds, idx) <= opts.MinStdDevFraction*globalSD {
		return n
	}
	attr, threshold, ok := bestSplit(ds, idx, opts.MinInstances)
	if !ok {
		return n
	}
	var left, right []int
	for _, i := range idx {
		if ds.Value(i, attr) <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < opts.MinInstances || len(right) < opts.MinInstances {
		return n
	}
	n.leaf = false
	n.attr = attr
	n.threshold = threshold
	n.left = build(ds, left, depth+1, opts, globalSD)
	n.right = build(ds, right, depth+1, opts, globalSD)
	return n
}

// bestSplit finds the (attribute, threshold) pair maximising the standard
// deviation reduction (SDR) over the instances in idx. It reports ok=false
// when no split produces two children of at least minInstances each.
func bestSplit(ds *dataset.Dataset, idx []int, minInstances int) (attr int, threshold float64, ok bool) {
	bestSDR := 0.0
	parentSD := stdDevTarget(ds, idx)
	if parentSD == 0 {
		return 0, 0, false
	}
	nTotal := float64(len(idx))

	for col := 0; col < ds.NumAttrs(); col++ {
		// Sort instance indices by this attribute's value.
		sorted := append([]int(nil), idx...)
		insertionSortBy(sorted, func(i int) float64 { return ds.Value(i, col) })

		// Sweep split positions, maintaining running sums on both sides.
		var leftSum, leftSumSq float64
		rightSum, rightSumSq := 0.0, 0.0
		for _, i := range sorted {
			v := ds.TargetValue(i)
			rightSum += v
			rightSumSq += v * v
		}
		for pos := 0; pos < len(sorted)-1; pos++ {
			v := ds.TargetValue(sorted[pos])
			leftSum += v
			leftSumSq += v * v
			rightSum -= v
			rightSumSq -= v * v

			cur := ds.Value(sorted[pos], col)
			next := ds.Value(sorted[pos+1], col)
			if cur == next {
				continue // cannot split between equal values
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
				attr = col
				threshold = (cur + next) / 2
				ok = true
			}
		}
	}
	return attr, threshold, ok
}

// insertionSortBy sorts idx ascending by key. The index slices inside tree
// induction are often nearly sorted after the parent split, where insertion
// sort is close to linear; for pathological cases it falls back to a simple
// heapify-free shell sort gap sequence to avoid quadratic blowups on large
// nodes.
func insertionSortBy(idx []int, key func(int) float64) {
	// Shell sort with Ciura-like gaps keeps worst-case behaviour tame
	// without pulling in sort.Slice closures per comparison (profiling the
	// tree induction showed comparator allocation dominating).
	gaps := []int{701, 301, 132, 57, 23, 10, 4, 1}
	n := len(idx)
	for _, gap := range gaps {
		if gap >= n {
			continue
		}
		for i := gap; i < n; i++ {
			tmp := idx[i]
			k := key(tmp)
			j := i
			for ; j >= gap && key(idx[j-gap]) > k; j -= gap {
				idx[j] = idx[j-gap]
			}
			idx[j] = tmp
		}
	}
}

func meanTarget(ds *dataset.Dataset, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	sum := 0.0
	for _, i := range idx {
		sum += ds.TargetValue(i)
	}
	return sum / float64(len(idx))
}

func stdDevTarget(ds *dataset.Dataset, idx []int) float64 {
	if len(idx) < 2 {
		return 0
	}
	var sum, sumSq float64
	for _, i := range idx {
		v := ds.TargetValue(i)
		sum += v
		sumSq += v * v
	}
	return stdDevFromSums(sum, sumSq, len(idx))
}

func stdDevFromSums(sum, sumSq float64, n int) float64 {
	if n < 1 {
		return 0
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0 // numerical noise
	}
	return math.Sqrt(variance)
}

// Predict returns the tree's prediction for a row with the training schema.
func (t *Tree) Predict(attrs []string, row []float64) (float64, error) {
	if len(attrs) != len(row) {
		return 0, fmt.Errorf("regtree: %d attribute names for %d values", len(attrs), len(row))
	}
	colOf, err := t.resolveAttrs(attrs)
	if err != nil {
		return 0, err
	}
	n := t.root
	for !n.leaf {
		if row[colOf[n.attr]] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value, nil
}

// Bind resolves the tree's split attributes against the given row schema
// once and compiles the node structure into the flattened layout of
// internal/flattree: leaves become intercept-only models, and smoothing is
// off, so the bound Predict performs exactly the comparisons Tree.Predict
// performs and returns the same leaf value. The schema may be wider or
// reordered as long as every training attribute is present.
func (t *Tree) Bind(attrs []string) (*flattree.Tree, error) {
	colOf, err := t.resolveAttrs(attrs)
	if err != nil {
		return nil, err
	}
	var b flattree.Builder
	flatten(&b, t.root, colOf, -1)
	return b.Build(len(attrs), true, 0)
}

// flatten appends n's subtree to b in preorder and returns n's node index.
func flatten(b *flattree.Builder, n *node, colOf []int, parent int32) int32 {
	if n.leaf {
		return b.Node(parent, float64(n.n), n.value)
	}
	i := b.Node(parent, float64(n.n), 0)
	l := flatten(b, n.left, colOf, i)
	r := flatten(b, n.right, colOf, i)
	b.Split(i, colOf[n.attr], n.threshold, l, r)
	return i
}

// resolveAttrs maps each training attribute onto its column in the given row
// schema.
func (t *Tree) resolveAttrs(attrs []string) ([]int, error) {
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
			return nil, fmt.Errorf("regtree: instance schema is missing attribute %q", name)
		}
		colOf[j] = found
	}
	return colOf, nil
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

// Leaves returns the number of leaves in the tree.
func (t *Tree) Leaves() int { return countLeaves(t.root) }

// InnerNodes returns the number of internal (splitting) nodes.
func (t *Tree) InnerNodes() int { return countInner(t.root) }

// Depth returns the depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int { return depth(t.root) }

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

func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}

// String renders the tree in an indented, human-readable form.
func (t *Tree) String() string {
	var b strings.Builder
	writeNode(&b, t.root, t.attrs, 0)
	return b.String()
}

func writeNode(b *strings.Builder, n *node, attrs []string, indent int) {
	pad := strings.Repeat("  ", indent)
	if n.leaf {
		fmt.Fprintf(b, "%sleaf: %.6g (n=%d)\n", pad, n.value, n.n)
		return
	}
	fmt.Fprintf(b, "%s%s <= %.6g (n=%d)\n", pad, attrs[n.attr], n.threshold, n.n)
	writeNode(b, n.left, attrs, indent+1)
	fmt.Fprintf(b, "%s%s > %.6g\n", pad, attrs[n.attr], n.threshold)
	writeNode(b, n.right, attrs, indent+1)
}
