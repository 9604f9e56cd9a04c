package linreg

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"agingpred/internal/dataset"
	"agingpred/internal/rng"
)

// buildLinearDataset creates a dataset whose target is an exact linear
// function of its attributes: y = intercept + Σ coef[i]*x[i] (+ noise).
func buildLinearDataset(t *testing.T, n int, coefs []float64, intercept, noise float64, seed uint64) *dataset.Dataset {
	t.Helper()
	names := make([]string, len(coefs))
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	ds, err := dataset.New("linear", names, "y")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	src := rng.New(seed)
	row := make([]float64, len(coefs))
	for i := 0; i < n; i++ {
		y := intercept
		for j := range coefs {
			row[j] = src.Float64Between(-10, 10)
			y += coefs[j] * row[j]
		}
		if noise > 0 {
			y += src.Normal(0, noise)
		}
		if err := ds.Append(row, y); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	return ds
}

func TestFitRecoversExactLinearModel(t *testing.T) {
	coefs := []float64{2.5, -1.25, 0.75}
	ds := buildLinearDataset(t, 200, coefs, 4.0, 0, 1)
	m, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(m.Intercept-4.0) > 1e-6 {
		t.Fatalf("intercept = %v, want 4.0", m.Intercept)
	}
	if len(m.Coefficients) != 3 {
		t.Fatalf("got %d coefficients, want 3", len(m.Coefficients))
	}
	for i, want := range coefs {
		if math.Abs(m.Coefficients[i]-want) > 1e-6 {
			t.Fatalf("coefficient %d = %v, want %v", i, m.Coefficients[i], want)
		}
	}
	if m.TrainingMAE > 1e-6 {
		t.Fatalf("training MAE = %v on noiseless data", m.TrainingMAE)
	}
	if m.TrainingInstances != 200 {
		t.Fatalf("TrainingInstances = %d, want 200", m.TrainingInstances)
	}
}

func TestFitWithNoiseIsClose(t *testing.T) {
	coefs := []float64{3, -2}
	ds := buildLinearDataset(t, 2000, coefs, 1.0, 0.5, 2)
	m, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for i, want := range coefs {
		if math.Abs(m.Coefficients[i]-want) > 0.1 {
			t.Fatalf("coefficient %d = %v, want about %v", i, m.Coefficients[i], want)
		}
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

func TestFitConstantColumnFallsBackToRidge(t *testing.T) {
	// A constant attribute makes the design matrix rank deficient together
	// with the intercept column; the ridge fallback must still produce a
	// usable model.
	ds := dataset.MustNew("const", []string{"c", "x"}, "y")
	src := rng.New(3)
	for i := 0; i < 100; i++ {
		x := src.Float64Between(0, 10)
		if err := ds.Append([]float64{5, x}, 2*x+1); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	m, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	preds, err := m.PredictDataset(ds)
	if err != nil {
		t.Fatalf("PredictDataset: %v", err)
	}
	for i, p := range preds {
		if math.Abs(p-ds.TargetValue(i)) > 0.01 {
			t.Fatalf("prediction %d = %v, want %v", i, p, ds.TargetValue(i))
		}
	}
}

func TestFitDuplicatedColumnStillPredicts(t *testing.T) {
	// Two identical columns: classic rank deficiency. Predictions must still
	// be finite and accurate even though individual coefficients are not
	// identifiable.
	ds := dataset.MustNew("dup", []string{"x1", "x2"}, "y")
	src := rng.New(4)
	for i := 0; i < 100; i++ {
		x := src.Float64Between(-5, 5)
		if err := ds.Append([]float64{x, x}, 3*x-2); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	m, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if m.TrainingMAE > 0.01 {
		t.Fatalf("training MAE = %v with duplicated columns", m.TrainingMAE)
	}
}

func TestFitFewerInstancesThanAttributes(t *testing.T) {
	ds := dataset.MustNew("wide", []string{"a", "b", "c", "d", "e"}, "y")
	_ = ds.Append([]float64{1, 2, 3, 4, 5}, 10)
	_ = ds.Append([]float64{2, 3, 4, 5, 6}, 12)
	m, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit on wide dataset: %v", err)
	}
	// Ridge fallback: predictions must be finite.
	p, err := m.Predict(ds.Attrs(), ds.Row(0))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("prediction is not finite: %v", p)
	}
}

func TestAttributeElimination(t *testing.T) {
	// y depends only on the first attribute; the other three are pure noise.
	ds := dataset.MustNew("elim", []string{"signal", "noise1", "noise2", "noise3"}, "y")
	src := rng.New(5)
	for i := 0; i < 300; i++ {
		s := src.Float64Between(0, 100)
		row := []float64{s, src.Float64(), src.Float64(), src.Float64()}
		if err := ds.Append(row, 5*s+7); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	m, err := Fit(ds, Options{EliminateAttrs: true})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if m.NumAttrs() >= 4 {
		t.Fatalf("elimination kept all %d attributes", m.NumAttrs())
	}
	found := false
	for _, a := range m.Attrs {
		if a == "signal" {
			found = true
		}
	}
	if !found {
		t.Fatalf("elimination dropped the signal attribute; kept %v", m.Attrs)
	}
}

func TestMaxAttrsKeepsMostCorrelated(t *testing.T) {
	ds := dataset.MustNew("cap", []string{"weak", "strong", "none"}, "y")
	src := rng.New(6)
	for i := 0; i < 500; i++ {
		s := src.Float64Between(0, 10)
		w := src.Float64Between(0, 10)
		row := []float64{w, s, src.Float64()}
		if err := ds.Append(row, 10*s+0.5*w+src.Normal(0, 0.1)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	m, err := Fit(ds, Options{MaxAttrs: 1})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if m.NumAttrs() != 1 || m.Attrs[0] != "strong" {
		t.Fatalf("MaxAttrs=1 kept %v, want [strong]", m.Attrs)
	}
}

func TestPredictSchemaBinding(t *testing.T) {
	ds := buildLinearDataset(t, 50, []float64{2}, 0, 0, 7)
	m, err := Fit(ds, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Predicting with a wider schema (extra columns, different order) works
	// as long as the model's attributes are present.
	p, err := m.Predict([]string{"zzz", "a"}, []float64{99, 3})
	if err != nil {
		t.Fatalf("Predict with reordered schema: %v", err)
	}
	if math.Abs(p-6) > 1e-6 {
		t.Fatalf("Predict = %v, want 6", p)
	}
	if _, err := m.Predict([]string{"zzz"}, []float64{1}); err == nil {
		t.Fatalf("Predict with missing attribute succeeded")
	}
	if _, err := m.Predict([]string{"a", "b"}, []float64{1}); err == nil {
		t.Fatalf("Predict with mismatched row length succeeded")
	}
}

func TestModelString(t *testing.T) {
	m := &Model{Attrs: []string{"mem", "thr"}, Coefficients: []float64{-3.5, 2}, Intercept: 10}
	s := m.String()
	if !strings.Contains(s, "mem") || !strings.Contains(s, "thr") || !strings.Contains(s, "- 3.5") {
		t.Fatalf("String() = %q", s)
	}
}

func TestAkaikeError(t *testing.T) {
	if got := akaikeError(10, 100, 4); math.Abs(got-10*105.0/95.0) > 1e-12 {
		t.Fatalf("akaikeError = %v", got)
	}
	if got := akaikeError(10, 3, 4); !math.IsInf(got, 1) {
		t.Fatalf("akaikeError with n <= params = %v, want +Inf", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("pearson(perfectly correlated) = %v", got)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if got := pearson(x, yneg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("pearson(perfectly anticorrelated) = %v", got)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if got := pearson(x, flat); got != 0 {
		t.Fatalf("pearson with zero-variance input = %v, want 0", got)
	}
	if got := pearson(nil, nil); got != 0 {
		t.Fatalf("pearson(empty) = %v, want 0", got)
	}
}

// Property: on data generated from an exact linear model (no noise, well
// conditioned), Fit recovers predictions to within numerical tolerance, no
// matter the coefficients.
func TestFitRecoversLinearProperty(t *testing.T) {
	f := func(c1i, c2i, bi int16, seed uint64) bool {
		c1 := float64(c1i) / 100
		c2 := float64(c2i) / 100
		intercept := float64(bi) / 100
		ds := dataset.MustNew("p", []string{"x1", "x2"}, "y")
		src := rng.New(seed)
		for i := 0; i < 60; i++ {
			x1 := src.Float64Between(-100, 100)
			x2 := src.Float64Between(-100, 100)
			if err := ds.Append([]float64{x1, x2}, intercept+c1*x1+c2*x2); err != nil {
				return false
			}
		}
		m, err := Fit(ds, Options{})
		if err != nil {
			return false
		}
		preds, err := m.PredictDataset(ds)
		if err != nil {
			return false
		}
		for i, p := range preds {
			want := ds.TargetValue(i)
			if math.Abs(p-want) > 1e-5*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions are invariant under adding an irrelevant constant
// column (the solver must not blow up on the induced rank deficiency).
func TestFitConstantColumnInvarianceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		base := dataset.MustNew("b", []string{"x"}, "y")
		augmented := dataset.MustNew("a", []string{"x", "k"}, "y")
		for i := 0; i < 80; i++ {
			x := src.Float64Between(-50, 50)
			y := 3*x + 2
			if err := base.Append([]float64{x}, y); err != nil {
				return false
			}
			if err := augmented.Append([]float64{x, 7}, y); err != nil {
				return false
			}
		}
		mb, err := Fit(base, Options{})
		if err != nil {
			return false
		}
		ma, err := Fit(augmented, Options{})
		if err != nil {
			return false
		}
		pb, err := mb.Predict([]string{"x"}, []float64{10})
		if err != nil {
			return false
		}
		pa, err := ma.Predict([]string{"x", "k"}, []float64{10, 7})
		if err != nil {
			return false
		}
		return math.Abs(pa-pb) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestExactlyDeterminedDesignSolvesByQR pins the degenerate Householder
// step: with as many rows as design columns, the last column has nothing
// below its pivot, so its reflector is the identity. The QR must solve the
// system exactly, without the ridge fallback, and agree bit for bit with
// the reference QR.
func TestExactlyDeterminedDesignSolvesByQR(t *testing.T) {
	// y = 1 + 2a - 3b through three points.
	d := &design{
		y: []float64{3, -2, -4},
		x: [][]float64{{1, 0, 2}, {0, 1, 3}},
	}
	want := []float64{1, 2, -3}
	q := newQR(len(d.y), len(want))
	q.load(d, []int{0, 1})
	got := make([]float64, len(want))
	if !q.steps(0) || !q.backSubstitute(got) {
		t.Fatalf("QR failed on an exactly determined design")
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("coefficient %d = %v, want %v", i, got[i], want[i])
		}
	}
	solved, err := d.solve(newQR(len(d.y), len(want)), []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := oracleQRSolve([]float64{1, 1, 0, 1, 0, 1, 1, 2, 3}, d.y, 3, 3)
	if !ok {
		t.Fatalf("reference QR failed on an exactly determined design")
	}
	for i := range want {
		if solved[i] != got[i] || ref[i] != got[i] {
			t.Fatalf("coefficient %d: solve %v, QR %v, reference %v", i, solved[i], got[i], ref[i])
		}
	}
}
