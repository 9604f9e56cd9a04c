package m5p

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"agingpred/internal/dataset"
	"agingpred/internal/fanout"
	"agingpred/internal/linreg"
	"agingpred/internal/rng"
)

// piecewiseDataset builds a dataset whose target is piecewise linear in x:
//
//	y = 3x + 5          for x < 50
//	y = -2x + 400       for x >= 50
//
// This is exactly the structure M5P is designed for: a plain linear model
// cannot fit it, a constant-leaf tree needs many leaves, and a model tree
// needs a single split with two linear leaves.
func piecewiseDataset(t testing.TB, n int, noise float64, seed uint64) *dataset.Dataset {
	t.Helper()
	ds := dataset.MustNew("piecewise", []string{"x", "irrelevant"}, "y")
	src := rng.New(seed)
	for i := 0; i < n; i++ {
		x := src.Float64Between(0, 100)
		var y float64
		if x < 50 {
			y = 3*x + 5
		} else {
			y = -2*x + 400
		}
		if noise > 0 {
			y += src.Normal(0, noise)
		}
		if err := ds.Append([]float64{x, src.Float64()}, y); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	return ds
}

func mae(t testing.TB, preds []float64, ds *dataset.Dataset) float64 {
	t.Helper()
	sum := 0.0
	for i, p := range preds {
		sum += math.Abs(p - ds.TargetValue(i))
	}
	return sum / float64(len(preds))
}

func TestFitPiecewiseLinear(t *testing.T) {
	ds := piecewiseDataset(t, 500, 0, 1)
	tree, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if tree.Leaves() < 2 {
		t.Fatalf("piecewise data produced %d leaves, want >= 2", tree.Leaves())
	}
	preds, err := tree.PredictDataset(ds)
	if err != nil {
		t.Fatalf("PredictDataset: %v", err)
	}
	if got := mae(t, preds, ds); got > 3 {
		t.Fatalf("training MAE = %v on noiseless piecewise-linear data", got)
	}
	// Point checks on both branches, away from the breakpoint.
	attrs := ds.Attrs()
	p1, err := tree.Predict(attrs, []float64{10, 0.3})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if math.Abs(p1-35) > 10 {
		t.Fatalf("Predict(x=10) = %v, want about 35", p1)
	}
	p2, err := tree.Predict(attrs, []float64{90, 0.3})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if math.Abs(p2-220) > 10 {
		t.Fatalf("Predict(x=90) = %v, want about 220", p2)
	}
}

func TestM5PBeatsLinearRegressionOnPiecewiseData(t *testing.T) {
	// The core claim of the paper's Tables 3 and 4, reproduced on synthetic
	// data: a model tree handles trend changes that defeat a single linear
	// model.
	train := piecewiseDataset(t, 600, 1.0, 2)
	test := piecewiseDataset(t, 300, 1.0, 3)

	tree, err := Fit(train, Options{})
	if err != nil {
		t.Fatalf("Fit m5p: %v", err)
	}
	lr, err := linreg.Fit(train, linreg.Options{})
	if err != nil {
		t.Fatalf("Fit linreg: %v", err)
	}
	treePreds, err := tree.PredictDataset(test)
	if err != nil {
		t.Fatalf("tree PredictDataset: %v", err)
	}
	lrPreds, err := lr.PredictDataset(test)
	if err != nil {
		t.Fatalf("linreg PredictDataset: %v", err)
	}
	treeMAE := mae(t, treePreds, test)
	lrMAE := mae(t, lrPreds, test)
	if treeMAE*2 > lrMAE {
		t.Fatalf("M5P MAE = %v, LinReg MAE = %v; want M5P at least 2x better", treeMAE, lrMAE)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, Options{}); err == nil {
		t.Fatalf("Fit(nil) succeeded")
	}
	empty := dataset.MustNew("e", []string{"a"}, "y")
	if _, err := Fit(empty, Options{}); err == nil {
		t.Fatalf("Fit on empty dataset succeeded")
	}
}

func TestFitTinyDataset(t *testing.T) {
	// Fewer instances than MinInstances: must still produce a usable model.
	ds := dataset.MustNew("tiny", []string{"x"}, "y")
	for i := 0; i < 4; i++ {
		_ = ds.Append([]float64{float64(i)}, float64(2*i))
	}
	tree, err := Fit(ds, Options{MinInstances: 10})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if tree.Leaves() != 1 {
		t.Fatalf("tiny dataset produced %d leaves", tree.Leaves())
	}
	p, err := tree.Predict([]string{"x"}, []float64{10})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if math.Abs(p-20) > 1 {
		t.Fatalf("tiny linear data: Predict(10) = %v, want about 20", p)
	}
}

func TestConstantTargetSingleLeaf(t *testing.T) {
	ds := dataset.MustNew("const", []string{"x"}, "y")
	src := rng.New(4)
	for i := 0; i < 200; i++ {
		_ = ds.Append([]float64{src.Float64()}, 7)
	}
	tree, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if tree.Leaves() != 1 {
		t.Fatalf("constant target produced %d leaves", tree.Leaves())
	}
	p, err := tree.Predict([]string{"x"}, []float64{0.5})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if math.Abs(p-7) > 1e-6 {
		t.Fatalf("Predict = %v, want 7", p)
	}
}

func TestPruningReducesOrKeepsSize(t *testing.T) {
	// On purely linear data, pruning should collapse the tree to (nearly) a
	// single leaf since one linear model explains everything.
	ds := dataset.MustNew("linear", []string{"x", "z"}, "y")
	src := rng.New(5)
	for i := 0; i < 800; i++ {
		x := src.Float64Between(0, 100)
		z := src.Float64Between(0, 100)
		_ = ds.Append([]float64{x, z}, 2*x-z+3+src.Normal(0, 0.5))
	}
	pruned, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	unpruned, err := Fit(ds, Options{Unpruned: true})
	if err != nil {
		t.Fatalf("Fit unpruned: %v", err)
	}
	if pruned.Leaves() > unpruned.Leaves() {
		t.Fatalf("pruned tree has %d leaves, unpruned %d", pruned.Leaves(), unpruned.Leaves())
	}
	if pruned.Leaves() > 3 {
		t.Fatalf("pruned tree on globally linear data has %d leaves, want <= 3", pruned.Leaves())
	}
}

func TestSmoothingTogglesPredictions(t *testing.T) {
	train := piecewiseDataset(t, 400, 2.0, 6)
	smooth, err := Fit(train, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	rough, err := Fit(train, Options{NoSmoothing: true})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if smooth.Leaves() < 2 {
		t.Skip("tree collapsed to one leaf; smoothing indistinguishable")
	}
	attrs := train.Attrs()
	differs := false
	for _, x := range []float64{5, 25, 45, 49, 51, 55, 75, 95} {
		ps, err := smooth.Predict(attrs, []float64{x, 0.5})
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		pr, err := rough.Predict(attrs, []float64{x, 0.5})
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if math.Abs(ps-pr) > 1e-9 {
			differs = true
		}
	}
	if !differs {
		t.Fatalf("smoothing had no effect on any test point")
	}
}

func TestTreeShapeInvariant(t *testing.T) {
	ds := piecewiseDataset(t, 700, 3, 7)
	tree, err := Fit(ds, Options{MinInstances: 5})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if tree.InnerNodes() != tree.Leaves()-1 {
		t.Fatalf("inner=%d leaves=%d, want inner = leaves-1", tree.InnerNodes(), tree.Leaves())
	}
	if tree.Depth() == 0 && tree.Leaves() != 1 {
		t.Fatalf("depth 0 with %d leaves", tree.Leaves())
	}
}

func TestPredictSchemaHandling(t *testing.T) {
	ds := piecewiseDataset(t, 300, 0, 8)
	tree, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Wider, reordered schema.
	p, err := tree.Predict([]string{"extra", "irrelevant", "x"}, []float64{1, 0.2, 20})
	if err != nil {
		t.Fatalf("Predict with reordered schema: %v", err)
	}
	if math.Abs(p-65) > 15 {
		t.Fatalf("Predict(x=20) = %v, want about 65", p)
	}
	if _, err := tree.Predict([]string{"x"}, []float64{1, 2}); err == nil {
		t.Fatalf("Predict with mismatched row length succeeded")
	}
	if _, err := tree.Predict([]string{"a", "b"}, []float64{1, 2}); err == nil {
		t.Fatalf("Predict with missing attributes succeeded")
	}
}

func TestTopSplitsAndAttributeCounts(t *testing.T) {
	// Build data where the dominant split attribute is known: y depends on a
	// threshold in "memory" and only weakly on "threads".
	ds := dataset.MustNew("rootcause", []string{"memory", "threads"}, "ttf")
	src := rng.New(9)
	for i := 0; i < 800; i++ {
		mem := src.Float64Between(0, 1000)
		thr := src.Float64Between(0, 100)
		var ttf float64
		if mem < 600 {
			ttf = 5000 - 2*mem + 0.5*thr
		} else {
			ttf = 1500 - 1.5*mem + 0.1*thr
		}
		_ = ds.Append([]float64{mem, thr}, ttf+src.Normal(0, 10))
	}
	tree, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	splits := tree.TopSplits(2)
	if len(splits) == 0 {
		t.Fatalf("TopSplits returned nothing for a tree with %d inner nodes", tree.InnerNodes())
	}
	if splits[0].Attr != "memory" {
		t.Fatalf("root split attribute = %q, want memory", splits[0].Attr)
	}
	if splits[0].Depth != 0 || splits[0].Instances != 800 {
		t.Fatalf("root split metadata = %+v", splits[0])
	}
	counts := tree.SplitAttributeCounts()
	if counts["memory"] == 0 {
		t.Fatalf("SplitAttributeCounts missing memory: %v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != tree.InnerNodes() {
		t.Fatalf("split counts sum to %d, want %d inner nodes", total, tree.InnerNodes())
	}
}

func TestTopSplitsOnLeafOnlyTree(t *testing.T) {
	ds := dataset.MustNew("flat", []string{"x"}, "y")
	for i := 0; i < 30; i++ {
		_ = ds.Append([]float64{float64(i)}, 1)
	}
	tree, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if got := tree.TopSplits(3); len(got) != 0 {
		t.Fatalf("TopSplits on a single-leaf tree = %v, want empty", got)
	}
	if got := tree.SplitAttributeCounts(); len(got) != 0 {
		t.Fatalf("SplitAttributeCounts on a single-leaf tree = %v", got)
	}
}

func TestStringOutput(t *testing.T) {
	ds := piecewiseDataset(t, 300, 0, 10)
	tree, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	s := tree.String()
	for _, want := range []string{"M5P model tree", "LM1", "x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestAttrsReturnsCopy(t *testing.T) {
	ds := piecewiseDataset(t, 100, 0, 11)
	tree, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	a := tree.Attrs()
	a[0] = "mutated"
	if tree.Attrs()[0] == "mutated" {
		t.Fatalf("Attrs exposed internal storage")
	}
}

func TestSortByColumn(t *testing.T) {
	ds := dataset.MustNew("sort", []string{"x"}, "y")
	vals := []float64{5, -1, 3.5, 3.5, 0, 100, -7, 42}
	for _, v := range vals {
		_ = ds.Append([]float64{v}, v)
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sortByColumn(ds, idx, 0)
	for i := 1; i < len(idx); i++ {
		if ds.Value(idx[i-1], 0) > ds.Value(idx[i], 0) {
			t.Fatalf("sortByColumn not sorted: %v", idx)
		}
	}
	// Stability: the two 3.5 values keep their original relative order.
	pos2, pos3 := -1, -1
	for i, id := range idx {
		if id == 2 {
			pos2 = i
		}
		if id == 3 {
			pos3 = i
		}
	}
	if pos2 > pos3 {
		t.Fatalf("sortByColumn is not stable: %v", idx)
	}
	// sortRows, the sort Fit runs once per column, orders rows identically.
	rows := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	sortRows(rows, vals, make([]int32, len(rows)))
	for i, r := range rows {
		if int(r) != idx[i] {
			t.Fatalf("sortRows = %v, sortByColumn = %v", rows, idx)
		}
	}
}

func TestEstimatedError(t *testing.T) {
	if got := estimatedError(10, 100, 4); math.Abs(got-10*105.0/95.0) > 1e-12 {
		t.Fatalf("estimatedError = %v", got)
	}
	if got := estimatedError(10, 3, 5); got != 100 {
		t.Fatalf("estimatedError with too few instances = %v, want 100", got)
	}
}

// Property: for data generated from a single global linear model, the M5P
// prediction matches the true function closely (pruning should reduce the
// tree to essentially one linear model).
func TestM5PMatchesGlobalLinearProperty(t *testing.T) {
	f := func(ci, bi int8, seed uint64) bool {
		c := float64(ci) / 10
		b := float64(bi)
		ds := dataset.MustNew("p", []string{"x"}, "y")
		src := rng.New(seed)
		for i := 0; i < 150; i++ {
			x := src.Float64Between(-100, 100)
			if err := ds.Append([]float64{x}, c*x+b); err != nil {
				return false
			}
		}
		tree, err := Fit(ds, Options{})
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			x := src.Float64Between(-100, 100)
			p, err := tree.Predict([]string{"x"}, []float64{x})
			if err != nil {
				return false
			}
			want := c*x + b
			if math.Abs(p-want) > 1e-3*(1+math.Abs(want))+1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions are always finite for finite inputs inside and
// slightly outside the training range.
func TestM5PFinitePredictionsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ds := piecewiseDataset(t, 300, 5, seed)
		tree, err := Fit(ds, Options{})
		if err != nil {
			return false
		}
		src := rng.New(seed ^ 0xabcdef)
		for i := 0; i < 30; i++ {
			x := src.Float64Between(-50, 150)
			p, err := tree.Predict([]string{"x", "irrelevant"}, []float64{x, src.Float64()})
			if err != nil {
				return false
			}
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// regimeDataset builds a dataset with many piecewise-linear regimes over p
// attributes, so the tree grows dozens of internal nodes and its fit queue
// holds many fits of different sizes.
func regimeDataset(n, p int, seed uint64) *dataset.Dataset {
	attrs := make([]string, p)
	for j := range attrs {
		attrs[j] = "x" + strconv.Itoa(j)
	}
	ds := dataset.MustNew("regimes", attrs, "y")
	src := rng.New(seed)
	row := make([]float64, p)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = src.Float64Between(0, 100)
		}
		regime := int(row[0]/20) + 5*int(row[1]/25)
		y := float64(regime*7) + float64(regime%3+1)*row[2] - float64(regime%4)*row[3] + src.Normal(0, 1)
		if err := ds.Append(row, y); err != nil {
			panic(err)
		}
	}
	return ds
}

// peakBuilders fits ds while sampling every goroutine's stack, and returns
// the most goroutines ever seen inside the induction (growing a subtree or
// draining the fit queue) at once.
func peakBuilders(t *testing.T, ds *dataset.Dataset) int {
	t.Helper()
	done := make(chan struct{})
	peak := make(chan int)
	go func() {
		buf := make([]byte, 1<<20)
		most := 0
		for {
			select {
			case <-done:
				peak <- most
				return
			default:
			}
			inside := 0
			for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
				if strings.Contains(g, "m5p.(*builder).") || strings.Contains(g, "m5p.fitAll") {
					inside++
				}
			}
			most = max(most, inside)
			time.Sleep(20 * time.Microsecond)
		}
	}()
	_, err := Fit(ds, Options{})
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	return <-peak
}

// TestFitHonoursForkBound holds induction to internal/fanout's process-wide
// bound of GOMAXPROCS-1 forked goroutines. With GOMAXPROCS 1, or with every
// fanout slot already taken (as when experiment cells train side by side),
// Fit must run on its caller alone; with a slot free, the grow and fit
// passes do use it.
func TestFitHonoursForkBound(t *testing.T) {
	ds := regimeDataset(3000, 8, 17)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := peakBuilders(t, ds); got != 1 {
		t.Fatalf("GOMAXPROCS 1: %d goroutines inside the induction at once, want 1", got)
	}

	runtime.GOMAXPROCS(2)
	release := make(chan struct{})
	hold := fanout.Fork(func() { <-release }) // takes the one slot
	got := peakBuilders(t, ds)
	close(release)
	hold()
	if got != 1 {
		t.Fatalf("GOMAXPROCS 2, slot taken: %d goroutines inside the induction at once, want 1", got)
	}

	got = 0
	for try := 0; try < 5 && got < 2; try++ {
		got = peakBuilders(t, ds)
	}
	if got != 2 {
		t.Fatalf("GOMAXPROCS 2, slot free: at most %d goroutines inside the induction at once, want 2", got)
	}
}
