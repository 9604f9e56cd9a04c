package experiments

import (
	"fmt"
	"strings"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/evalx"
	"agingpred/internal/features"
	"agingpred/internal/injector"
	"agingpred/internal/testbed"
)

// experiment43Phases builds the periodic-pattern test schedule of Section
// 4.3: acquire memory for 10 minutes (N=15), release for 10 minutes (N=75 —
// much slower than the acquisition, so most of the acquired memory is
// retained every cycle and the leak accumulates), repeated until the
// retained memory exhausts the heap. Enough cycles are generated to
// guarantee a crash; the run stops at the crash. The test execution crashes
// within about two hours, matching the duration scale of the paper's test
// runs (its other experiments report 1 h 47 min and 1 h 55 min).
func experiment43Phases(cycles int) []injector.Phase {
	var phases []injector.Phase
	for i := 0; i < cycles; i++ {
		phases = append(phases,
			injector.Phase{
				Name:       fmt.Sprintf("acquire-%d", i+1),
				Duration:   10 * time.Minute,
				MemoryMode: injector.MemoryAcquire,
				MemoryN:    15,
			},
			injector.Phase{
				Name:       fmt.Sprintf("release-%d", i+1),
				Duration:   10 * time.Minute,
				MemoryMode: injector.MemoryRelease,
				MemoryN:    75,
			},
		)
	}
	return phases
}

// Experiment43Result reproduces Section 4.3 / Table 4 / Figure 4: software
// aging hidden inside a periodic acquire/release pattern, and the effect of
// expert feature selection.
type Experiment43Result struct {
	// TrainReportSelected describes the M5P model trained on the heap-focused
	// variable subset (the paper: 17 inner nodes, 18 leaves).
	TrainReportSelected core.TrainReport
	// TrainReportFull describes the M5P model trained on the full variable
	// set — the paper's "first approach" that paid too much attention to
	// irrelevant attributes.
	TrainReportFull core.TrainReport

	// Table4 holds the Lin. Reg and M5P reports (both with feature
	// selection), in that order, like the columns of Table 4.
	Table4 []evalx.Report
	// M5PFullSet is the accuracy of the full-variable M5P model, documenting
	// the improvement feature selection brings.
	M5PFullSet evalx.Report

	// Trace is the Figure 4 series: predicted TTF vs JVM-perspective heap
	// usage (the waves).
	Trace []TracePoint
	// CrashTimeSec is when the test execution crashed.
	CrashTimeSec float64
	// Cycles is how many acquire/release cycles completed before the crash.
	Cycles int
}

// String renders the result like Table 4.
func (r *Experiment43Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 4.3 — aging hidden in a periodic pattern (Table 4, Figure 4)\n")
	fmt.Fprintf(&b, "  %s\n  full-variable model: %s\n", r.TrainReportSelected, r.TrainReportFull)
	fmt.Fprintf(&b, "  test run crashed at %.0f s after %d acquire/release cycles\n", r.CrashTimeSec, r.Cycles)
	b.WriteString(formatReports("  with heap-focused feature selection", r.Table4...))
	b.WriteString(formatReports("  M5P without feature selection", r.M5PFullSet))
	return b.String()
}

// Experiment43 runs the periodic-pattern experiment.
func Experiment43(opts Options) (*Experiment43Result, error) {
	opts = opts.withDefaults()
	trainSeries, err := training42Runs(opts)
	if err != nil {
		return nil, err
	}

	// Three models: M5P and Linear Regression on the heap-focused subset
	// (Table 4), plus M5P on the full set to document why selection matters.
	heapFocus, err := features.LookupSchema(features.HeapFocusSchemaName)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	m5pSelected, err := core.Train(core.Config{Model: core.ModelM5P, Schema: heapFocus}, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training selected M5P for 4.3: %w", err)
	}
	lrSelected, err := core.Train(core.Config{Model: core.ModelLinearRegression, Schema: heapFocus}, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training selected linear regression for 4.3: %w", err)
	}
	m5pFull, err := trainScenarioModel(opts, core.ModelM5P, features.FullSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training full-set M5P for 4.3: %w", err)
	}

	// Test run: enough cycles to guarantee exhaustion (the run stops at the
	// crash anyway).
	const cycles = 48
	testRes, err := runUntilCrash(testbed.RunConfig{
		Name:        "exp43-test",
		Seed:        opts.Seed + 4300,
		EBs:         opts.TrainEBs,
		Phases:      experiment43Phases(cycles),
		MaxDuration: 16 * time.Hour,
		Ctx:         opts.Ctx,
	})
	if err != nil {
		return nil, err
	}

	lrRep, m5Rep, m5Preds, err := evaluateBoth(lrSelected, m5pSelected, testRes.Series, nil)
	if err != nil {
		return nil, err
	}
	fullRep, err := m5pFull.Evaluate(testRes.Series, evalx.Options{Model: "M5P (full variables)"})
	if err != nil {
		return nil, err
	}

	return &Experiment43Result{
		TrainReportSelected: m5pSelected.Report(),
		TrainReportFull:     m5pFull.Report(),
		Table4:              []evalx.Report{lrRep, m5Rep},
		M5PFullSet:          fullRep,
		Trace:               trace(testRes.Series, m5Preds),
		CrashTimeSec:        testRes.Series.CrashTimeSec,
		Cycles:              int(testRes.Series.CrashTimeSec / (20 * time.Minute).Seconds()),
	}, nil
}

// PaperTable4 returns the published Table 4 values in seconds.
func PaperTable4() []PaperValue {
	return []PaperValue{
		{Metric: "MAE", LinReg: 15*60 + 57, M5P: 3*60 + 34},
		{Metric: "S-MAE", LinReg: 4*60 + 53, M5P: 21},
		{Metric: "PRE-MAE", LinReg: 16*60 + 10, M5P: 3*60 + 31},
		{Metric: "POST-MAE", LinReg: 8*60 + 14, M5P: 5*60 + 29},
	}
}
