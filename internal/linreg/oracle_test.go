package linreg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"agingpred/internal/dataset"
	"agingpred/internal/rng"
)

// This file keeps the straightforward fitting path — a row-major design
// matrix per solve and a from-scratch Householder QR for every elimination
// trial — as a reference oracle. Fit must reproduce it bit for bit: the
// column-major QR, its shared prefixes and the concurrent trials are
// optimisations, never a change of result.

// oracleFit is Fit as the reference computes it.
func oracleFit(ds *dataset.Dataset, opts Options) (*Model, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("linreg: empty dataset")
	}
	ridge := opts.Ridge
	if ridge == 0 {
		ridge = 1e-8
	}
	attrs := ds.Attrs()
	var cols []int
	if opts.Columns != nil {
		cols = append([]int{}, opts.Columns...)
		sort.Ints(cols)
	} else {
		cols = make([]int, len(attrs))
		for i := range cols {
			cols[i] = i
		}
	}
	if opts.MaxAttrs > 0 && len(cols) > opts.MaxAttrs {
		cols = oracleTopCorrelated(ds, cols, opts.MaxAttrs)
	}
	coefs, intercept, err := oracleSolve(ds, cols, ridge)
	if err != nil {
		return nil, err
	}
	model := oracleBuildModel(ds, attrs, cols, coefs, intercept)
	if opts.EliminateAttrs && len(cols) > 1 {
		model = oracleEliminate(ds, attrs, cols, ridge, model)
	}
	return model, nil
}

func oracleBuildModel(ds *dataset.Dataset, attrs []string, cols []int, coefs []float64, intercept float64) *Model {
	m := &Model{
		Attrs:             make([]string, len(cols)),
		Coefficients:      append([]float64(nil), coefs...),
		Intercept:         intercept,
		TrainingInstances: ds.Len(),
	}
	for i, c := range cols {
		m.Attrs[i] = attrs[c]
	}
	sumAbs := 0.0
	for i := 0; i < ds.Len(); i++ {
		pred := intercept
		for j, c := range cols {
			pred += coefs[j] * ds.Value(i, c)
		}
		sumAbs += math.Abs(pred - ds.TargetValue(i))
	}
	m.TrainingMAE = sumAbs / float64(ds.Len())
	return m
}

func oracleEliminate(ds *dataset.Dataset, attrs []string, cols []int, ridge float64, initial *Model) *Model {
	best := initial
	bestCols := append([]int(nil), cols...)
	bestScore := akaikeError(initial.TrainingMAE, ds.Len(), len(bestCols))

	improved := true
	for improved && len(bestCols) > 1 {
		improved = false
		var (
			bestDropIdx   = -1
			bestDropModel *Model
			bestDropCols  []int
			bestDropScore = bestScore
		)
		for drop := range bestCols {
			trial := make([]int, 0, len(bestCols)-1)
			trial = append(trial, bestCols[:drop]...)
			trial = append(trial, bestCols[drop+1:]...)
			coefs, intercept, err := oracleSolve(ds, trial, ridge)
			if err != nil {
				continue
			}
			m := oracleBuildModel(ds, attrs, trial, coefs, intercept)
			score := akaikeError(m.TrainingMAE, ds.Len(), len(trial))
			if score <= bestDropScore {
				bestDropScore = score
				bestDropIdx = drop
				bestDropModel = m
				bestDropCols = trial
			}
		}
		if bestDropIdx >= 0 {
			best = bestDropModel
			bestCols = bestDropCols
			bestScore = bestDropScore
			improved = true
		}
	}
	return best
}

func oracleTopCorrelated(ds *dataset.Dataset, candidates []int, k int) []int {
	type scored struct {
		col  int
		corr float64
	}
	targets := ds.Targets()
	scoredCols := make([]scored, 0, len(candidates))
	for _, c := range candidates {
		scoredCols = append(scoredCols, scored{col: c, corr: math.Abs(pearson(ds.Column(c), targets))})
	}
	sort.SliceStable(scoredCols, func(i, j int) bool { return scoredCols[i].corr > scoredCols[j].corr })
	cols := make([]int, 0, k)
	for i := 0; i < k && i < len(scoredCols); i++ {
		cols = append(cols, scoredCols[i].col)
	}
	sort.Ints(cols)
	return cols
}

// oracleDesign builds the row-major design matrix [1, cols...] and target.
func oracleDesign(ds *dataset.Dataset, cols []int) (a, b []float64, n, p int) {
	n, p = ds.Len(), len(cols)+1
	a = make([]float64, n*p)
	b = make([]float64, n)
	for i := 0; i < n; i++ {
		a[i*p] = 1
		for j, c := range cols {
			a[i*p+j+1] = ds.Value(i, c)
		}
		b[i] = ds.TargetValue(i)
	}
	return a, b, n, p
}

func oracleSolve(ds *dataset.Dataset, cols []int, ridge float64) (coefs []float64, intercept float64, err error) {
	a, b, n, p := oracleDesign(ds, cols)
	x, ok := oracleQRSolve(a, b, n, p)
	if !ok {
		m, v := oracleNormal(a, b, n, p)
		x, err = ridgeSolve(m, v, p, ridge)
		if err != nil {
			return nil, 0, fmt.Errorf("linreg: solving least squares: %w", err)
		}
	}
	return x[1:], x[0], nil
}

// oracleNormal accumulates the normal equations AᵀA and Aᵀb of an n×p
// row-major matrix row by row.
func oracleNormal(a, b []float64, n, p int) (m, v []float64) {
	m = make([]float64, p*p)
	v = make([]float64, p)
	for i := 0; i < n; i++ {
		row := a[i*p : (i+1)*p]
		for j := 0; j < p; j++ {
			v[j] += row[j] * b[i]
			for k := j; k < p; k++ {
				m[j*p+k] += row[j] * row[k]
			}
		}
	}
	for j := 0; j < p; j++ {
		for k := 0; k < j; k++ {
			m[j*p+k] = m[k*p+j]
		}
	}
	return m, v
}

// oracleQRSolve solves min ||Ax - b|| for an n×p row-major matrix with a
// from-scratch Householder QR, reporting ok=false when A is (numerically)
// rank deficient.
func oracleQRSolve(a, b []float64, n, p int) (x []float64, ok bool) {
	if n < p {
		return nil, false
	}
	r := append([]float64(nil), a...)
	y := append([]float64(nil), b...)
	for k := 0; k < p; k++ {
		norm := 0.0
		for i := k; i < n; i++ {
			norm = math.Hypot(norm, r[i*p+k])
		}
		if norm == 0 {
			return nil, false
		}
		below := 0.0
		for i := k + 1; i < n; i++ {
			below = math.Hypot(below, r[i*p+k])
		}
		if below == 0 {
			// H = I (LAPACK dlarfg's τ = 0): R(k,k) is the pivot itself.
			r[k*p+k] = -r[k*p+k]
			continue
		}
		if r[k*p+k] > 0 {
			norm = -norm
		}
		for i := k; i < n; i++ {
			r[i*p+k] /= norm
		}
		r[k*p+k] += 1
		for j := k + 1; j < p; j++ {
			s := 0.0
			for i := k; i < n; i++ {
				s += r[i*p+k] * r[i*p+j]
			}
			s = -s / r[k*p+k]
			for i := k; i < n; i++ {
				r[i*p+j] += s * r[i*p+k]
			}
		}
		s := 0.0
		for i := k; i < n; i++ {
			s += r[i*p+k] * y[i]
		}
		s = -s / r[k*p+k]
		for i := k; i < n; i++ {
			y[i] += s * r[i*p+k]
		}
		r[k*p+k] = norm
	}
	x = make([]float64, p)
	const rankTol = 1e-10
	maxDiag := 0.0
	for k := 0; k < p; k++ {
		if d := math.Abs(r[k*p+k]); d > maxDiag {
			maxDiag = d
		}
	}
	for k := p - 1; k >= 0; k-- {
		diag := -r[k*p+k]
		if math.Abs(diag) <= rankTol*maxDiag || diag == 0 {
			return nil, false
		}
		s := y[k]
		for j := k + 1; j < p; j++ {
			s -= r[k*p+j] * x[j]
		}
		x[k] = s / diag
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	return x, true
}

// The dataset shapes the oracle comparison covers.
const (
	shapePlain     = iota // independent uniform columns
	shapeTies             // few distinct values, duplicated rows
	shapeCollinear        // a doubled column, a constant and an all-zero column
	shapeWide             // fewer instances than attributes
	shapeRidge            // rank deficient for every QR: ridge fallback
	shapeMany             // 10-16 attributes, often with a doubled column
	shapeScaled           // column scales spanning 1e-150 to 1e150
	numShapes
)

// shapedDataset draws a random dataset of the given shape.
func shapedDataset(seed uint64, shape int) *dataset.Dataset {
	src := rng.New(seed)
	p := src.IntBetween(2, 9)
	if shape == shapeMany {
		p = src.IntBetween(10, 16)
	}
	n := src.IntBetween(p+1, 90)
	if shape == shapeWide {
		n = src.IntBetween(1, p)
	}
	if shape == shapeRidge {
		n = src.IntBetween(2, 12)
	}
	attrs := make([]string, p)
	scale := make([]float64, p)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("x%d", j)
		scale[j] = 1
		if shape == shapeScaled {
			scale[j] = math.Pow(10, float64(src.IntBetween(-150, 150)))
		}
	}
	// In the many-attribute shape, x2 may double x0 or x1: trials that
	// keep both members of the pair are rank deficient, the others not.
	doubled := -1
	if shape == shapeMany {
		doubled = src.Intn(3) - 1
	}
	ds := dataset.MustNew("shaped", attrs, "y")
	row := make([]float64, p)
	for i := 0; i < n; i++ {
		if shape == shapeTies && i > 0 && src.Bool(0.3) {
			prev := ds.Row(src.Intn(i))
			_ = ds.Append(prev, math.Round(prev[0]*2))
			continue
		}
		for j := range row {
			switch {
			case shape == shapeTies:
				row[j] = float64(src.Intn(3))
			case shape == shapeCollinear && j == 1:
				row[j] = 2 * row[0]
			case shape == shapeCollinear && j == 2:
				row[j] = 4.5
			case shape == shapeCollinear && j == 3:
				row[j] = 0
			case shape == shapeRidge && j == 0:
				row[j] = 4.5
			case j == 2 && doubled >= 0:
				row[j] = 2 * row[doubled]
			default:
				row[j] = src.Float64Between(-10, 10)
			}
		}
		y := 3*row[p-1] - row[1] + src.Normal(0, 0.5)
		if row[1] > 0 {
			y += 10
		}
		if shape == shapeTies {
			y = math.Round(y)
		}
		for j := range row {
			row[j] *= scale[j]
		}
		if err := ds.Append(row, y); err != nil {
			panic(err)
		}
	}
	return ds
}

func snapshotJSON(t *testing.T, m *Model) []byte {
	t.Helper()
	b, err := json.Marshal(m.Snapshot())
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

// TestFitMatchesOracle compares the encoded models of Fit and the reference
// on random datasets of every shape and every option combination M5P and
// the linear-regression baseline use.
func TestFitMatchesOracle(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		for shape := 0; shape < numShapes; shape++ {
			for seed := uint64(1); seed <= 40; seed++ {
				ds := shapedDataset(seed*numShapes+uint64(shape), shape)
				optsList := []Options{
					{EliminateAttrs: true},
					{EliminateAttrs: true, MaxAttrs: 3},
					{},
					{EliminateAttrs: true, Columns: []int{ds.NumAttrs() - 1, 0, 1}},
					{EliminateAttrs: true, Columns: []int{}},
				}
				for oi, opts := range optsList {
					got, gotErr := Fit(ds, opts)
					want, wantErr := oracleFit(ds, opts)
					if (gotErr != nil) != (wantErr != nil) {
						t.Fatalf("shape %d seed %d opts %d: err %v, oracle err %v", shape, seed, oi, gotErr, wantErr)
					}
					if gotErr != nil {
						continue
					}
					if g, w := snapshotJSON(t, got), snapshotJSON(t, want); !bytes.Equal(g, w) {
						t.Fatalf("shape %d seed %d opts %d:\n got %s\nwant %s", shape, seed, oi, g, w)
					}
				}
			}
		}
	})
}

// TestShapesReachRidgeFallback guards the oracle comparison's coverage: the
// ridge shape must make the from-scratch QR fail on the full design, and the
// wide shape must have fewer instances than design columns.
func TestShapesReachRidgeFallback(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		ds := shapedDataset(seed*numShapes+shapeRidge, shapeRidge)
		all := make([]int, ds.NumAttrs())
		for j := range all {
			all[j] = j
		}
		if _, ok := oracleQRSolve(oracleDesign(ds, all)); ok {
			t.Fatalf("seed %d: ridge-shaped dataset solved by QR", seed)
		}
		if wide := shapedDataset(seed*numShapes+shapeWide, shapeWide); wide.Len() >= wide.NumAttrs()+1 {
			t.Fatalf("seed %d: wide dataset has %d rows for %d attributes", seed, wide.Len(), wide.NumAttrs())
		}
	}
}

// TestShapesReachSplitGroups guards the oracle comparison's coverage of
// lockstep trials: in the first elimination round of some many-attribute
// dataset, a group member's QR fails while its partner's finishes, with
// the failing member first in its group and, on another dataset, second.
// The first member's failure is then its own: its partner shares its
// prefix and completes.
func TestShapesReachSplitGroups(t *testing.T) {
	var firstFails, secondFails bool
	for seed := uint64(1); seed <= 40; seed++ {
		ds := shapedDataset(seed*numShapes+shapeMany, shapeMany)
		all := make([]int, ds.NumAttrs())
		for j := range all {
			all[j] = j
		}
		qrOK := func(drop int) bool {
			trial := append(append([]int(nil), all[:drop]...), all[drop+1:]...)
			_, ok := oracleQRSolve(oracleDesign(ds, trial))
			return ok
		}
		for lo := 0; lo+1 < len(all); lo += lockstep {
			a, b := qrOK(lo), qrOK(lo+1)
			firstFails = firstFails || (!a && b)
			secondFails = secondFails || (a && !b)
		}
	}
	if !firstFails || !secondFails {
		t.Fatalf("no group splits: first member fails alone %v, second member fails alone %v", firstFails, secondFails)
	}
}

// TestDropTrialsMatchOracle compares every trial of a first elimination
// round, and the full model fitted alongside, with the reference's
// from-scratch fit of the same columns: the solution bit for bit, and the
// training MAE. Unlike the comparison of fitted models, it sees trials
// that do not win their round.
func TestDropTrialsMatchOracle(t *testing.T) {
	const lambda = 1e-8
	for shape := 0; shape < numShapes; shape++ {
		for seed := uint64(1); seed <= 40; seed++ {
			ds := shapedDataset(seed*numShapes+uint64(shape), shape)
			n, all := ds.Len(), make([]int, ds.NumAttrs())
			d := &design{y: ds.Targets(), x: make([][]float64, len(all))}
			for j := range all {
				all[j], d.x[j] = j, ds.Column(j)
			}
			var lanes [lockstep]lane
			whole := make([]float64, len(all)+1)
			trials, err := d.dropTrials(all, newQR(n, len(all)+1), &lanes, lambda, whole)
			check := func(what string, cols []int, ok bool, x []float64, mae float64) {
				t.Helper()
				coefs, intercept, wantErr := oracleSolve(ds, cols, lambda)
				if ok != (wantErr == nil) {
					t.Fatalf("shape %d seed %d %s: ok %v, oracle err %v", shape, seed, what, ok, wantErr)
				}
				if !ok {
					return
				}
				want := oracleBuildModel(ds, ds.Attrs(), cols, coefs, intercept)
				for j, w := range append([]float64{intercept}, coefs...) {
					if math.Float64bits(x[j]) != math.Float64bits(w) {
						t.Fatalf("shape %d seed %d %s: x[%d] = %v, oracle %v", shape, seed, what, j, x[j], w)
					}
				}
				if mae >= 0 && math.Float64bits(mae) != math.Float64bits(want.TrainingMAE) {
					t.Fatalf("shape %d seed %d %s: mae %v, oracle %v", shape, seed, what, mae, want.TrainingMAE)
				}
			}
			check("full model", all, err == nil, whole, -1)
			for drop, tr := range trials {
				cols := append(append([]int(nil), all[:drop]...), all[drop+1:]...)
				check(fmt.Sprintf("trial %d", drop), cols, tr.ok, tr.x, tr.mae)
			}
		}
	}
}

// TestFitRowsMatchesSubset checks that fitting a row view equals fitting the
// copied subset, for arbitrary (unsorted, repeating) row lists.
func TestFitRowsMatchesSubset(t *testing.T) {
	src := rng.New(99)
	for seed := uint64(1); seed <= 60; seed++ {
		shape := int(seed % numShapes)
		ds := shapedDataset(seed, shape)
		rows := make([]int32, src.IntBetween(1, 2*ds.Len()))
		idx := make([]int, len(rows))
		for i := range rows {
			idx[i] = src.Intn(ds.Len())
			rows[i] = int32(idx[i])
		}
		sub, err := ds.Subset(idx)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{EliminateAttrs: true, MaxAttrs: int(seed % 4)}
		got, gotErr := FitRows(ds, rows, opts)
		want, wantErr := Fit(sub, opts)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("seed %d: err %v, subset err %v", seed, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(snapshotJSON(t, got), snapshotJSON(t, want)) {
			t.Fatalf("seed %d: FitRows differs from Fit on the subset", seed)
		}
	}
	if _, err := FitRows(shapedDataset(1, shapePlain), nil, Options{}); err == nil {
		t.Fatal("FitRows with no rows: want an error")
	}
}
