package m5p

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"agingpred/internal/dataset"
	"agingpred/internal/linreg"
	"agingpred/internal/rng"
)

// This file keeps the straightforward induction path — every node re-sorts
// its instances per column, copies them into a dataset of their own for its
// model fit, and pruning re-evaluates every node model row by row — as a
// reference oracle. Fit must reproduce it bit for bit: sorting once,
// partitioning row ranges, growing sibling subtrees concurrently and fitting
// node models from a shared largest-first queue are optimisations, never a
// change of result.

// oracleFit is Fit as the reference computes it: grow, fit node models,
// prune, as three passes.
func oracleFit(ds *dataset.Dataset, opts Options) (*Tree, error) {
	opts = opts.withDefaults()
	if ds.Len() < opts.MinInstances {
		opts.MinInstances = ds.Len()
	}
	t := &Tree{attrs: ds.Attrs(), opts: opts, TrainingInstances: ds.Len()}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	t.root = oracleGrow(t, ds, idx, 0, ds.TargetStats().StdDev)
	if _, err := oracleFitModels(t, ds, t.root, idx, true); err != nil {
		return nil, err
	}
	if !opts.Unpruned {
		oraclePrune(t, ds, t.root, idx)
	}
	return t, nil
}

// oraclePartition splits idx by n's test.
func oraclePartition(ds *dataset.Dataset, n *node, idx []int) (left, right []int) {
	for _, i := range idx {
		if ds.Value(i, n.attr) <= n.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right
}

func oracleGrow(t *Tree, ds *dataset.Dataset, idx []int, depth int, globalSD float64) *node {
	n := &node{n: len(idx), leaf: true, sd: oracleStdDevTarget(ds, idx)}
	if len(idx) < 2*t.opts.MinInstances || depth >= t.opts.MaxDepth {
		return n
	}
	if n.sd <= t.opts.MinStdDevFraction*globalSD {
		return n
	}
	attr, threshold, ok := oracleBestSplit(ds, idx, t.opts.MinInstances)
	if !ok {
		return n
	}
	test := &node{attr: attr, threshold: threshold}
	left, right := oraclePartition(ds, test, idx)
	if len(left) < t.opts.MinInstances || len(right) < t.opts.MinInstances {
		return n
	}
	n.leaf = false
	n.attr = attr
	n.threshold = threshold
	n.left = oracleGrow(t, ds, left, depth+1, globalSD)
	n.right = oracleGrow(t, ds, right, depth+1, globalSD)
	return n
}

func oracleFitModels(t *Tree, ds *dataset.Dataset, n *node, idx []int, isRoot bool) (map[int]bool, error) {
	sub, err := ds.Subset(idx)
	if err != nil {
		return nil, err
	}
	opts := linreg.Options{EliminateAttrs: true, MaxAttrs: t.opts.LeafMaxAttrs}
	if n.leaf {
		if !isRoot {
			opts.Columns = []int{}
		}
		n.model, err = linreg.Fit(sub, opts)
		return map[int]bool{}, err
	}
	left, right := oraclePartition(ds, n, idx)
	leftAttrs, err := oracleFitModels(t, ds, n.left, left, false)
	if err != nil {
		return nil, err
	}
	rightAttrs, err := oracleFitModels(t, ds, n.right, right, false)
	if err != nil {
		return nil, err
	}
	subtree := map[int]bool{n.attr: true}
	for a := range leftAttrs {
		subtree[a] = true
	}
	for a := range rightAttrs {
		subtree[a] = true
	}
	opts.Columns = []int{}
	for a := range subtree {
		opts.Columns = append(opts.Columns, a)
	}
	n.model, err = linreg.Fit(sub, opts)
	return subtree, err
}

func oraclePrune(t *Tree, ds *dataset.Dataset, n *node, idx []int) float64 {
	nodeErr := estimatedError(oracleNodeModelMAE(t, ds, n, idx), len(idx), n.model.NumAttrs())
	if n.leaf {
		return nodeErr
	}
	left, right := oraclePartition(ds, n, idx)
	leftErr := oraclePrune(t, ds, n.left, left)
	rightErr := oraclePrune(t, ds, n.right, right)
	subtreeErr := (leftErr*float64(len(left)) + rightErr*float64(len(right))) / float64(len(idx))
	if nodeErr <= subtreeErr {
		n.leaf = true
		n.left = nil
		n.right = nil
		return nodeErr
	}
	return subtreeErr
}

// oracleNodeModelMAE evaluates the node model on every instance reaching n
// through the name-resolving Model.Predict.
func oracleNodeModelMAE(t *Tree, ds *dataset.Dataset, n *node, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	sum := 0.0
	for _, i := range idx {
		p, err := n.model.Predict(t.attrs, ds.Row(i))
		if err != nil {
			p = math.Inf(1)
		}
		sum += math.Abs(p - ds.TargetValue(i))
	}
	return sum / float64(len(idx))
}

// oracleBestSplit finds the (attribute, threshold) maximising SDR, sorting
// the node's instances per column.
func oracleBestSplit(ds *dataset.Dataset, idx []int, minInstances int) (attr int, threshold float64, ok bool) {
	parentSD := oracleStdDevTarget(ds, idx)
	if parentSD == 0 {
		return 0, 0, false
	}
	bestSDR := 0.0
	nTotal := float64(len(idx))
	sorted := make([]int, len(idx))
	for col := 0; col < ds.NumAttrs(); col++ {
		copy(sorted, idx)
		sortByColumn(ds, sorted, col)
		var leftSum, leftSumSq float64
		var rightSum, rightSumSq float64
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
				attr = col
				threshold = (cur + next) / 2
				ok = true
			}
		}
	}
	return attr, threshold, ok
}

// sortByColumn sorts idx ascending by the given attribute column using a
// stable bottom-up merge sort.
func sortByColumn(ds *dataset.Dataset, idx []int, col int) {
	n := len(idx)
	if n < 2 {
		return
	}
	buf := make([]int, n)
	src, dst := idx, buf
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if ds.Value(src[i], col) <= ds.Value(src[j], col) {
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
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}

func oracleStdDevTarget(ds *dataset.Dataset, idx []int) float64 {
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

// The dataset shapes the oracle comparison covers.
const (
	shapePlain     = iota // independent uniform columns
	shapeTies             // few distinct values, duplicated rows
	shapeCollinear        // a doubled column, a constant and an all-zero column
	shapeWide             // fewer instances than attributes
	shapeRidge            // rank-deficient node designs: ridge fallback
	numShapes
)

// shapedDataset draws a random dataset of the given shape, piecewise linear
// in its first columns so that trees actually split.
func shapedDataset(seed uint64, shape int) *dataset.Dataset {
	src := rng.New(seed)
	p := src.IntBetween(2, 8)
	n := src.IntBetween(20, 260)
	switch shape {
	case shapeWide:
		n = src.IntBetween(1, p)
	case shapeRidge:
		n = src.IntBetween(8, 40)
	}
	attrs := make([]string, p)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("x%d", j)
	}
	ds := dataset.MustNew("shaped", attrs, "y")
	row := make([]float64, p)
	for i := 0; i < n; i++ {
		if shape == shapeTies && i > 0 && src.Bool(0.3) {
			prev := ds.Row(src.Intn(i))
			_ = ds.Append(prev, ds.TargetValue(i-1))
			continue
		}
		for j := range row {
			switch {
			case shape == shapeTies:
				row[j] = float64(src.Intn(4))
			case shape == shapeCollinear && j == 1:
				row[j] = 2 * row[0]
			case shape == shapeCollinear && j == 2:
				row[j] = 4.5
			case shape == shapeCollinear && j == 3:
				row[j] = 0
			case shape == shapeRidge && j == 1:
				row[j] = row[0]
			default:
				row[j] = src.Float64Between(-10, 10)
			}
		}
		y := 3*row[0] - row[p-1] + src.Normal(0, 0.3)
		if row[0] > 1 {
			y = 40 - 2*row[0] + row[1%p]
		}
		if shape == shapeTies {
			y = math.Round(y)
		}
		if err := ds.Append(row, y); err != nil {
			panic(err)
		}
	}
	return ds
}

// oracleOptions are the induction options the comparison runs.
var oracleOptions = []Options{
	{},
	{MinInstances: 2},
	{MinInstances: 3, LeafMaxAttrs: 2},
	{MinInstances: 4, Unpruned: true},
	{MinInstances: 2, MaxDepth: 2},
}

func snapshotJSON(t *testing.T, tree *Tree) []byte {
	t.Helper()
	b, err := json.Marshal(tree.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// withProcs runs f under each GOMAXPROCS setting.
func withProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// TestFitMatchesOracle compares the encoded trees of Fit and the reference
// on random datasets of every shape under several induction options.
func TestFitMatchesOracle(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		for shape := 0; shape < numShapes; shape++ {
			for seed := uint64(1); seed <= 12; seed++ {
				ds := shapedDataset(seed*numShapes+uint64(shape), shape)
				for oi, opts := range oracleOptions {
					got, err := Fit(ds, opts)
					if err != nil {
						t.Fatalf("shape %d seed %d opts %d: Fit: %v", shape, seed, oi, err)
					}
					want, err := oracleFit(ds, opts)
					if err != nil {
						t.Fatalf("shape %d seed %d opts %d: oracle: %v", shape, seed, oi, err)
					}
					if g, w := snapshotJSON(t, got), snapshotJSON(t, want); !bytes.Equal(g, w) {
						t.Fatalf("shape %d seed %d opts %d:\n got %s\nwant %s", shape, seed, oi, g, w)
					}
				}
			}
		}
	})
}

// TestSplitsMatchOracle walks the induction by hand: at every node the row
// list must be ascending and a split must keep it as it was for the node's
// model fit, the partitioned sort orders must equal a fresh stable sort of
// the node's instances, and the chosen (attribute, threshold) must equal the
// reference's per-node sort plus bestSplit.
func TestSplitsMatchOracle(t *testing.T) {
	splits := 0
	for shape := 0; shape < numShapes; shape++ {
		for seed := uint64(1); seed <= 12; seed++ {
			ds := shapedDataset(seed*numShapes+uint64(shape), shape)
			tree := &Tree{attrs: ds.Attrs(), opts: Options{MinInstances: 2}.withDefaults()}
			if ds.Len() < tree.opts.MinInstances {
				continue
			}
			b := newBuilder(tree, ds)
			var walk func(lo, hi, depth int)
			walk = func(lo, hi, depth int) {
				idx := make([]int, hi-lo)
				for i, r := range b.rows[lo:hi] {
					idx[i] = int(r)
				}
				if !slices.IsSorted(idx) {
					t.Fatalf("shape %d seed %d [%d,%d): rows %v not ascending", shape, seed, lo, hi, idx)
				}
				for c, ord := range b.order {
					want := append([]int(nil), idx...)
					sortByColumn(ds, want, c)
					for i, r := range ord[lo:hi] {
						if int(r) != want[i] {
							t.Fatalf("shape %d seed %d [%d,%d) column %d: order %v, want %v", shape, seed, lo, hi, c, ord[lo:hi], want)
						}
					}
				}
				n := &node{n: hi - lo, leaf: true, sd: stdDevTarget(b.y, b.rows[lo:hi])}
				gotAttr, gotThr, gotOK := b.bestSplit(lo, hi, n.sd)
				wantAttr, wantThr, wantOK := oracleBestSplit(ds, idx, tree.opts.MinInstances)
				if gotAttr != wantAttr || math.Float64bits(gotThr) != math.Float64bits(wantThr) || gotOK != wantOK {
					t.Fatalf("shape %d seed %d [%d,%d): split (%d, %v, %v), oracle (%d, %v, %v)",
						shape, seed, lo, hi, gotAttr, gotThr, gotOK, wantAttr, wantThr, wantOK)
				}
				mid, asc, ok := b.split(n, lo, hi, depth)
				if !ok {
					return
				}
				for i, r := range asc {
					if int(r) != idx[i] {
						t.Fatalf("shape %d seed %d [%d,%d): kept rows %v, want %v", shape, seed, lo, hi, asc, idx)
					}
				}
				splits++
				walk(lo, mid, depth+1)
				walk(mid, hi, depth+1)
			}
			walk(0, ds.Len(), 0)
		}
	}
	if splits < 100 {
		t.Fatalf("only %d splits compared; the datasets should split more", splits)
	}
}

// TestNodeErrorIsBoundModelMAE checks the identity pruning relies on: each
// node model's TrainingMAE equals, bit for bit, the MAE of the bound node
// model over the training instances that reach the node.
func TestNodeErrorIsBoundModelMAE(t *testing.T) {
	for shape := 0; shape < numShapes; shape++ {
		for seed := uint64(1); seed <= 6; seed++ {
			ds := shapedDataset(seed*numShapes+uint64(shape), shape)
			tree, err := Fit(ds, Options{MinInstances: 3, Unpruned: true})
			if err != nil {
				t.Fatal(err)
			}
			reach := map[*node][]int{}
			for i := 0; i < ds.Len(); i++ {
				for n := tree.root; n != nil; {
					reach[n] = append(reach[n], i)
					if n.leaf {
						break
					}
					if ds.Value(i, n.attr) <= n.threshold {
						n = n.left
					} else {
						n = n.right
					}
				}
			}
			for n, idx := range reach {
				bm, err := n.model.Bind(tree.attrs)
				if err != nil {
					t.Fatal(err)
				}
				sum := 0.0
				for _, i := range idx {
					sum += math.Abs(bm.Predict(ds.Row(i)) - ds.TargetValue(i))
				}
				if got, want := n.model.TrainingMAE, sum/float64(len(idx)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("shape %d seed %d: node TrainingMAE %v, bound-model MAE %v", shape, seed, got, want)
				}
			}
		}
	}
}
