// Package flattree is the one schema-bound evaluator of all three model
// families: an M5P model tree, a plain regression tree and a linear
// regression bind to the same flattened, array-backed layout, which the
// per-checkpoint hot path walks with no name lookups, no pointer chasing and
// no per-call allocations.
//
//	node i   col[i]        split column, or leafCol (-1) for a leaf
//	         threshold[i]  split test is "row[col[i]] <= threshold[i]"
//	         left[i]       index of the <=-child (noChild for leaves)
//	         right[i]      index of the >-child (noChild for leaves)
//	         parent[i]     index of the parent (-1 for the root)
//	         n[i]          training instances reaching the node (smoothing)
//	         intercept[i]  constant term of the node's linear model
//	         modelOff[i]   first index of the node's terms in coeffs/cols;
//	                       the model spans [modelOff[i], modelOff[i+1])
//
// A regression tree is this layout with intercept-only leaves and no
// smoothing; a linear model is a tree of one leaf.
//
// Nodes are stored in preorder, so every child index is strictly greater
// than its parent's — validate enforces it, which both bounds the descent
// (indices strictly increase, so the walk terminates even if a corrupt
// layout were to slip through) and makes the downward walk move forward
// through memory. All node models share the two contiguous coeffs/cols
// arrays, so evaluating a prediction touches a handful of small flat slices
// instead of one heap object per node.
package flattree

import (
	"fmt"
	"math"
	"sort"
)

const (
	// leafCol marks a leaf in col.
	leafCol int32 = -1
	// noChild marks the absent children of a leaf in left/right.
	noChild int32 = -1
)

// Tree is a model bound once to a fixed row schema and flattened into
// parallel node arrays: split columns and every node's linear model are
// pre-resolved to row indices. A Tree is immutable and safe for concurrent
// use; every Session of a core.Model evaluates the model's one shared Tree.
// Trees are made only by Builder.Build, which validates the layout.
type Tree struct {
	noSmoothing bool
	k           float64
	width       int // bound row width, for validation

	col       []int32
	threshold []float64
	left      []int32
	right     []int32
	parent    []int32
	n         []float64

	// Node linear models, laid out contiguously in node order.
	intercept []float64
	modelOff  []int32 // len(col)+1 entries; modelOff[len(col)] == len(coeffs)
	coeffs    []float64
	cols      []int32
}

// Builder assembles a Tree node by node in preorder: Node appends a node
// (a leaf until Split gives it children), Term appends a term to the linear
// model of the node appended last, and Build validates the result. The zero
// Builder is ready to use.
type Builder struct{ t Tree }

// Node appends a leaf whose linear model is the constant intercept and
// returns its index. parent is the index of its parent (-1 for the root)
// and n the number of training instances reaching it, the weight smoothing
// gives it.
func (b *Builder) Node(parent int32, n, intercept float64) int32 {
	t := &b.t
	i := int32(len(t.col))
	t.col = append(t.col, leafCol)
	t.threshold = append(t.threshold, 0)
	t.left = append(t.left, noChild)
	t.right = append(t.right, noChild)
	t.parent = append(t.parent, parent)
	t.n = append(t.n, n)
	t.intercept = append(t.intercept, intercept)
	t.modelOff = append(t.modelOff, int32(len(t.coeffs)))
	return i
}

// Term adds coeff*row[col] to the linear model of the node appended last.
// Terms are evaluated in the order they are added.
func (b *Builder) Term(coeff float64, col int) {
	b.t.coeffs = append(b.t.coeffs, coeff)
	b.t.cols = append(b.t.cols, int32(col))
}

// Split turns node i into an inner node testing row[col] <= threshold, with
// children left and right.
func (b *Builder) Split(i int32, col int, threshold float64, left, right int32) {
	b.t.col[i] = int32(col)
	b.t.threshold[i] = threshold
	b.t.left[i] = left
	b.t.right[i] = right
}

// Build finishes the layout for rows of the given width and validates it.
// Unless noSmoothing is set, predictions are filtered back up the ancestor
// chain with M5's smoothing constant k. Build only ever hands out layouts
// the Predict walk can rely on; the check is paid once per binding, never
// per prediction. The Builder must not be used afterwards.
func (b *Builder) Build(width int, noSmoothing bool, k float64) (*Tree, error) {
	t := &b.t
	t.width, t.noSmoothing, t.k = width, noSmoothing, k
	t.modelOff = append(t.modelOff, int32(len(t.coeffs)))
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Predict evaluates the tree on a row laid out in the bound schema: the
// leaf's linear model, then — unless smoothing is off — the smoothing
// filter back up the ancestor chain. The arithmetic matches the families'
// name-resolving Predict operation for operation, so the two paths produce
// bit-identical results. The ancestor walk uses the parent array, so
// smoothing needs no recursion and no per-call stack regardless of depth.
func (t *Tree) Predict(row []float64) float64 {
	i := t.leaf(row)
	pred := t.evalModel(i, row)
	if t.noSmoothing {
		return pred
	}
	for i != 0 {
		p := t.parent[i]
		pred = (float64(t.n[i]*pred) + float64(t.k*t.evalModel(p, row))) / (t.n[i] + t.k) // float64: never fused (FMA)
		i = p
	}
	return pred
}

// leaf descends from the root to the leaf the row falls into.
func (t *Tree) leaf(row []float64) int32 {
	// Local slice headers let the descent loop keep base pointers in
	// registers instead of reloading them through t every hop.
	col, threshold, left, right := t.col, t.threshold, t.left, t.right
	i := int32(0)
	for col[i] >= 0 {
		if row[col[i]] <= threshold[i] {
			i = left[i]
		} else {
			i = right[i]
		}
	}
	return i
}

// evalModel evaluates node i's linear model on the row: the intercept plus
// each term in the order it was added, so a stand-alone linear model and the
// same model inlined at a tree node are bit-identical.
func (t *Tree) evalModel(i int32, row []float64) float64 {
	pred := t.intercept[i]
	coeffs, cols := t.coeffs, t.cols
	end := t.modelOff[i+1]
	for j := t.modelOff[i]; j < end; j++ {
		pred += float64(coeffs[j] * row[cols[j]]) // float64: never fused (FMA)
	}
	return pred
}

// PredictBatch evaluates the tree on every row, writing one prediction per
// row into out (len(out) must be >= len(rows)). Each row goes through
// exactly the scalar Predict walk, so batch and scalar results are
// bit-identical; batching amortises call overhead and keeps the node arrays
// hot in cache across a whole shard tick.
func (t *Tree) PredictBatch(rows [][]float64, out []float64) {
	for i, row := range rows {
		out[i] = t.Predict(row)
	}
}

// Columns returns every row column the tree can read — split columns plus
// all node-model columns — sorted ascending and de-duplicated. Consumers use
// it to skip computing feature columns the tree can never look at.
func (t *Tree) Columns() []int {
	seen := make(map[int]bool)
	for _, c := range t.col {
		if c >= 0 {
			seen[int(c)] = true
		}
	}
	for _, c := range t.cols {
		seen[int(c)] = true
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// validate checks every structural invariant the Predict walk relies on, so
// that a malformed layout is rejected at construction time instead of
// panicking (or looping) at prediction time: consistent array lengths,
// children in range and strictly after their parent (which bounds the
// descent), a consistent parent array (which bounds the smoothing walk-up),
// split columns and model columns inside the bound row width, finite
// thresholds and model terms, and non-negative instance counts.
func (t *Tree) validate() error {
	nodes := len(t.col)
	if nodes == 0 {
		return fmt.Errorf("flattree: tree has no nodes")
	}
	if len(t.threshold) != nodes || len(t.left) != nodes || len(t.right) != nodes ||
		len(t.parent) != nodes || len(t.n) != nodes || len(t.intercept) != nodes {
		return fmt.Errorf("flattree: arrays disagree on node count %d", nodes)
	}
	if len(t.modelOff) != nodes+1 {
		return fmt.Errorf("flattree: %d model offsets for %d nodes", len(t.modelOff), nodes)
	}
	if len(t.coeffs) != len(t.cols) {
		return fmt.Errorf("flattree: %d coefficients for %d model columns", len(t.coeffs), len(t.cols))
	}
	if t.width <= 0 {
		return fmt.Errorf("flattree: bound to non-positive row width %d", t.width)
	}
	if !t.noSmoothing && !(t.k > 0) || math.IsInf(t.k, 0) {
		return fmt.Errorf("flattree: smoothing constant %v is not positive and finite", t.k)
	}
	if t.modelOff[0] != 0 || int(t.modelOff[nodes]) != len(t.coeffs) {
		return fmt.Errorf("flattree: model offsets do not cover the term arrays")
	}
	if t.parent[0] != -1 {
		return fmt.Errorf("flattree: root has parent %d", t.parent[0])
	}
	for i := 0; i < nodes; i++ {
		if t.modelOff[i] > t.modelOff[i+1] {
			return fmt.Errorf("flattree: node %d has negative-length model", i)
		}
		if math.IsNaN(t.intercept[i]) || math.IsInf(t.intercept[i], 0) {
			return fmt.Errorf("flattree: node %d intercept is not finite: %v", i, t.intercept[i])
		}
		if math.IsNaN(t.n[i]) || math.IsInf(t.n[i], 0) || t.n[i] < 0 {
			return fmt.Errorf("flattree: node %d has invalid instance count %v", i, t.n[i])
		}
		if i > 0 {
			p := t.parent[i]
			if p < 0 || int(p) >= i {
				return fmt.Errorf("flattree: node %d has parent %d outside [0,%d)", i, p, i)
			}
			if t.left[p] != int32(i) && t.right[p] != int32(i) {
				return fmt.Errorf("flattree: node %d is not a child of its parent %d", i, p)
			}
		}
		if t.col[i] < 0 {
			// Leaf: no split, no children.
			if t.col[i] != leafCol {
				return fmt.Errorf("flattree: node %d has invalid split column %d", i, t.col[i])
			}
			if t.left[i] != noChild || t.right[i] != noChild {
				return fmt.Errorf("flattree: leaf %d has children", i)
			}
			continue
		}
		if int(t.col[i]) >= t.width {
			return fmt.Errorf("flattree: node %d split column %d out of range [0,%d)", i, t.col[i], t.width)
		}
		if math.IsNaN(t.threshold[i]) || math.IsInf(t.threshold[i], 0) {
			return fmt.Errorf("flattree: node %d threshold is not finite: %v", i, t.threshold[i])
		}
		l, r := t.left[i], t.right[i]
		// Children strictly after the parent is what guarantees the descent
		// terminates: the node index strictly increases on every hop.
		if int(l) <= i || int(l) >= nodes || int(r) <= i || int(r) >= nodes {
			return fmt.Errorf("flattree: node %d child indices (%d,%d) out of range (%d,%d)", i, l, r, i, nodes)
		}
		if l == r {
			return fmt.Errorf("flattree: node %d has the same node %d as both children", i, l)
		}
	}
	for j, c := range t.cols {
		if c < 0 || int(c) >= t.width {
			return fmt.Errorf("flattree: model column %d out of range [0,%d)", c, t.width)
		}
		if math.IsNaN(t.coeffs[j]) || math.IsInf(t.coeffs[j], 0) {
			return fmt.Errorf("flattree: model coefficient %d is not finite: %v", j, t.coeffs[j])
		}
	}
	return nil
}
