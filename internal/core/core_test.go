package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"agingpred/internal/evalx"
	"agingpred/internal/features"
	"agingpred/internal/monitor"
	"agingpred/internal/testbed"
)

// trainTestSeries runs a small set of aging executions once per test binary
// and caches them, because testbed runs are the expensive part of these
// tests.
var cachedSeries struct {
	train []*monitor.Series
	test  *monitor.Series
}

func agingSeries(t testing.TB) (train []*monitor.Series, test *monitor.Series) {
	t.Helper()
	if cachedSeries.test != nil {
		return cachedSeries.train, cachedSeries.test
	}
	var cfgs []testbed.RunConfig
	for _, ebs := range []int{50, 100, 200} {
		cfgs = append(cfgs, testbed.RunConfig{
			Name:        "train",
			Seed:        uint64(ebs),
			EBs:         ebs,
			Phases:      testbed.ConstantLeakPhases(30),
			MaxDuration: 4 * time.Hour,
		})
	}
	series, err := testbed.RunMany(cfgs)
	if err != nil {
		t.Fatalf("building training series: %v", err)
	}
	res, err := testbed.Run(testbed.RunConfig{
		Name:        "test",
		Seed:        777,
		EBs:         150,
		Phases:      testbed.ConstantLeakPhases(30),
		MaxDuration: 4 * time.Hour,
	})
	if err != nil {
		t.Fatalf("building test series: %v", err)
	}
	if !res.Crashed {
		t.Fatalf("test run did not crash")
	}
	cachedSeries.train = series
	cachedSeries.test = res.Series
	return series, res.Series
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	if err := (Config{Model: "bogus"}).Validate(); err == nil {
		t.Fatalf("bogus model accepted")
	}
	if _, err := Train(Config{Model: "bogus"}, []*monitor.Series{leakSeries("train", 50, 2, 0.3)}); err == nil {
		t.Fatalf("Train with bogus model succeeded")
	}
	cfg := trainedOn(t, Config{}).Config()
	if cfg.Model != ModelM5P || cfg.WindowLength != features.DefaultWindowLength ||
		cfg.MinLeafInstances != 10 || cfg.InfiniteTTF != 10800*time.Second {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestTrainRejectsEmptyInput(t *testing.T) {
	if _, err := Train(Config{}, nil); err == nil {
		t.Fatalf("Train with no series succeeded")
	}
	if _, err := TrainDataset(Config{}, nil); err == nil {
		t.Fatalf("TrainDataset(nil) succeeded")
	}
}

func TestTrainPredictEvaluateM5P(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training is a multi-second test")
	}
	train, test := agingSeries(t)

	m, err := Train(Config{Model: ModelM5P}, train)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	report := m.Report()
	if report.Instances < 100 || report.Leaves < 1 {
		t.Fatalf("implausible training report: %+v", report)
	}
	if !strings.Contains(report.String(), "m5p") {
		t.Fatalf("report string = %q", report.String())
	}

	rep, err := m.Evaluate(test, evalx.Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if rep.N != test.Len() {
		t.Fatalf("evaluated %d of %d checkpoints", rep.N, test.Len())
	}
	// The run lasts over an hour; a usable predictor must do much better
	// than the trivial "always predict the mean" baseline (~25% of the run
	// length). Require MAE under 15 minutes.
	if rep.MAE > 900 {
		t.Fatalf("M5P MAE = %s, too large for a deterministic-aging scenario", evalx.FormatDuration(rep.MAE))
	}
	if rep.SMAE > rep.MAE {
		t.Fatalf("S-MAE %v exceeds MAE %v", rep.SMAE, rep.MAE)
	}
	// Predictions sharpen near the crash.
	if rep.PostMAE > rep.PreMAE {
		t.Fatalf("POST-MAE %s is worse than PRE-MAE %s", evalx.FormatDuration(rep.PostMAE), evalx.FormatDuration(rep.PreMAE))
	}

	// The model description includes the tree rendering.
	if !strings.Contains(m.Description(), "M5P model tree") {
		t.Fatalf("Description does not render the tree")
	}
}

func TestM5PBeatsLinearRegressionOnAgingData(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training is a multi-second test")
	}
	train, test := agingSeries(t)

	// The comparison uses the paper's experiment 4.1 variable set (no heap
	// zone information), which is the setting Table 3 reports.
	noHeap := schemaNamed(t, features.NoHeapSchemaName)
	evalModel := func(kind ModelKind) evalx.Report {
		m, err := Train(Config{Model: kind, Schema: noHeap}, train)
		if err != nil {
			t.Fatalf("Train(%s): %v", kind, err)
		}
		rep, err := m.Evaluate(test, evalx.Options{Model: string(kind)})
		if err != nil {
			t.Fatalf("Evaluate(%s): %v", kind, err)
		}
		return rep
	}
	m5pRep := evalModel(ModelM5P)
	lrRep := evalModel(ModelLinearRegression)
	if m5pRep.MAE >= lrRep.MAE {
		t.Fatalf("M5P MAE %s is not better than Linear Regression MAE %s",
			evalx.FormatDuration(m5pRep.MAE), evalx.FormatDuration(lrRep.MAE))
	}
}

func TestRegressionTreeModelWorks(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training is a multi-second test")
	}
	train, test := agingSeries(t)
	m, err := Train(Config{Model: ModelRegressionTree}, train)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if leaves := m.Report().Leaves; leaves < 2 {
		t.Fatalf("regression tree has %d leaves", leaves)
	}
	rep, err := m.Evaluate(test, evalx.Options{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if math.IsNaN(rep.MAE) || rep.MAE <= 0 {
		t.Fatalf("regression tree MAE = %v", rep.MAE)
	}
	if _, err := m.RootCause(2); err == nil {
		t.Fatalf("RootCause on a non-M5P model succeeded")
	}
}

func TestObserveOnlinePredictionsAdapt(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training is a multi-second test")
	}
	train, test := agingSeries(t)
	m, err := Train(Config{}, train)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// Feed the test run checkpoint by checkpoint; the prediction near the
	// end must be far smaller than at the middle, and all predictions are
	// finite and clamped to the configured horizon.
	sess := m.NewSession()
	var mid, last Prediction
	for i, cp := range test.Checkpoints {
		pred, err := sess.Observe(cp)
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		if pred.TTFSec < 0 || pred.TTFSec > m.Config().InfiniteTTF.Seconds() {
			t.Fatalf("prediction out of range: %v", pred.TTFSec)
		}
		if i == test.Len()/2 {
			mid = pred
		}
		last = pred
	}
	if last.TTFSec >= mid.TTFSec {
		t.Fatalf("prediction did not shrink approaching the crash: mid %v, last %v", mid.TTFSec, last.TTFSec)
	}
	if !last.CrashExpected {
		t.Fatalf("crash not expected at the last checkpoint before the crash")
	}
	if last.TTF != time.Duration(last.TTFSec*float64(time.Second)) {
		t.Fatalf("TTF duration and TTFSec disagree")
	}
}

func TestPredictSeriesAgainstReferenceLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training is a multi-second test")
	}
	train, test := agingSeries(t)
	m, err := Train(Config{}, train)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	ref := make([]float64, test.Len())
	for i := range ref {
		ref[i] = 1234
	}
	preds, err := m.PredictSeriesAgainst(test, ref)
	if err != nil {
		t.Fatalf("PredictSeriesAgainst: %v", err)
	}
	for _, pr := range preds {
		if pr.TrueTTF != 1234 {
			t.Fatalf("reference label not applied: %v", pr.TrueTTF)
		}
	}
	if _, err := m.PredictSeriesAgainst(test, ref[:3]); err == nil {
		t.Fatalf("mismatched reference length accepted")
	}
}

func TestRootCausePointsAtMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training is a multi-second test")
	}
	train, _ := agingSeries(t)
	m, err := Train(Config{}, train)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	hints, err := m.RootCause(0) // 0 = default depth
	if err != nil {
		t.Fatalf("RootCause: %v", err)
	}
	if len(hints) == 0 {
		t.Fatalf("no root-cause hints from an aging-trained model")
	}
	// The aging fault is a memory leak: at least one of the top hints must
	// be a memory-related metric.
	memoryRelated := false
	for _, h := range hints {
		if strings.Contains(h.Attr, "mem") || strings.Contains(h.Attr, "old") || strings.Contains(h.Attr, "young") ||
			strings.Contains(h.Attr, "swap") {
			memoryRelated = true
		}
	}
	if !memoryRelated {
		t.Fatalf("no memory-related attribute among root-cause hints: %+v", hints)
	}
	text := FormatRootCause(hints)
	if !strings.Contains(text, hints[0].Attr) {
		t.Fatalf("FormatRootCause missing top attribute:\n%s", text)
	}
	if got := FormatRootCause(nil); !strings.Contains(got, "no root-cause hints") {
		t.Fatalf("FormatRootCause(nil) = %q", got)
	}
}

func TestPredictSeriesValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end training is a multi-second test")
	}
	train, _ := agingSeries(t)
	m, err := Train(Config{}, train)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := m.PredictSeries(nil); err == nil {
		t.Fatalf("PredictSeries(nil) succeeded")
	}
	if _, err := m.PredictSeries(&monitor.Series{}); err == nil {
		t.Fatalf("PredictSeries of empty series succeeded")
	}
	if _, err := m.Evaluate(&monitor.Series{}, evalx.Options{}); err == nil {
		t.Fatalf("Evaluate of empty series succeeded")
	}
}
