package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/evalx"
	"agingpred/internal/features"
	"agingpred/internal/injector"
	"agingpred/internal/monitor"
	"agingpred/internal/testbed"
)

// The trileak scenario extends experiment 4.4 from two simultaneous aging
// resources to three: memory leaks, thread leaks, and database-connection
// leaks (a third injector the paper's testbed does not have). As in 4.4 the
// models are trained only on single-resource executions and must generalise
// to the combined fault, now with one more way to die — the connection pool
// running dry.

// TriLeakResult is the outcome of the three-resource scenario.
type TriLeakResult struct {
	// TrainReport describes the M5P model trained on the six single-resource
	// executions (two per resource).
	TrainReport core.TrainReport
	// M5P and LinReg are the accuracy reports on the combined-fault test run,
	// against the actual time to failure.
	M5P    evalx.Report
	LinReg evalx.Report
	// Trace allows redrawing the prediction-vs-consumption figure.
	Trace []TracePoint
	// CrashTimeSec and CrashReason describe which of the three resources won
	// the race to kill the server.
	CrashTimeSec float64
	CrashReason  string
	// RootCause holds the top attributes of the learned tree, to check the
	// model noticed the injected resources.
	RootCause []core.RootCauseHint
}

// String renders the result.
func (r *TriLeakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario trileak — three simultaneous aging resources (memory + threads + connections)\n")
	fmt.Fprintf(&b, "  %s\n", r.TrainReport)
	fmt.Fprintf(&b, "  test run crashed at %.0f s (%s)\n", r.CrashTimeSec, r.CrashReason)
	b.WriteString(formatReports("  accuracy vs actual time to failure", r.LinReg, r.M5P))
	b.WriteString(core.FormatRootCause(r.RootCause))
	return b.String()
}

// trileakTrainingRuns builds six single-resource executions: two memory-leak
// rates, two thread-leak rates, two connection-leak rates. The model never
// sees two resources injected together during training.
func trileakTrainingRuns(opts Options) ([]*monitor.Series, error) {
	opts = opts.withDefaults()
	series := make([]*monitor.Series, 0, 6)
	for _, n := range []int{15, 75} {
		res, err := runUntilCrash(testbed.RunConfig{
			Name:        fmt.Sprintf("trileak-train-mem-N%d", n),
			Seed:        opts.Seed + 6000 + uint64(n),
			EBs:         opts.TrainEBs,
			Phases:      testbed.ConstantLeakPhases(n),
			MaxDuration: opts.MaxRunDuration,
			Ctx:         opts.Ctx,
		})
		if err != nil {
			return nil, err
		}
		series = append(series, res.Series)
	}
	threadRates := []struct{ m, t int }{{15, 120}, {45, 60}}
	for _, r := range threadRates {
		res, err := runUntilCrash(testbed.RunConfig{
			Name:        fmt.Sprintf("trileak-train-thr-M%d-T%d", r.m, r.t),
			Seed:        opts.Seed + 6100 + uint64(r.m),
			EBs:         opts.TrainEBs,
			Phases:      testbed.ConstantThreadLeakPhases(r.m, r.t),
			MaxDuration: opts.MaxRunDuration,
			Ctx:         opts.Ctx,
		})
		if err != nil {
			return nil, err
		}
		series = append(series, res.Series)
	}
	connRates := []struct{ c, t int }{{4, 45}, {8, 60}}
	for _, r := range connRates {
		res, err := runUntilCrash(testbed.RunConfig{
			Name:        fmt.Sprintf("trileak-train-conn-C%d-T%d", r.c, r.t),
			Seed:        opts.Seed + 6200 + uint64(r.c),
			EBs:         opts.TrainEBs,
			Phases:      testbed.ConstantConnLeakPhases(r.c, r.t),
			MaxDuration: opts.MaxRunDuration,
			Ctx:         opts.Ctx,
		})
		if err != nil {
			return nil, err
		}
		series = append(series, res.Series)
	}
	return series, nil
}

// trileakPhases is the combined-fault test schedule: a clean warm-up, then
// all three injectors at moderate rates until something gives out.
func trileakPhases() []injector.Phase {
	return []injector.Phase{
		{Name: "no injection", Duration: trileakWarmup, MemoryMode: injector.MemoryOff},
		{Name: "mem+thr+conn", MemoryMode: injector.MemoryLeak, MemoryN: 75,
			ThreadM: 15, ThreadT: 120, ConnC: 3, ConnT: 60},
	}
}

// trileakWarmup is the clean phase before the three injectors start.
const trileakWarmup = 20 * time.Minute

// ExperimentTriLeak runs the three-resource scenario.
func ExperimentTriLeak(opts Options) (*TriLeakResult, error) {
	opts = opts.withDefaults()
	trainSeries, err := trileakTrainingRuns(opts)
	if err != nil {
		return nil, err
	}

	m5pModel, err := trainScenarioModel(opts, core.ModelM5P, features.FullSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training M5P for trileak scenario: %w", err)
	}
	lrModel, err := trainScenarioModel(opts, core.ModelLinearRegression, features.FullSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training linear regression for trileak scenario: %w", err)
	}

	testRes, err := runUntilCrash(testbed.RunConfig{
		Name:        "trileak-test",
		Seed:        opts.Seed + 6900,
		EBs:         opts.TrainEBs,
		Phases:      trileakPhases(),
		MaxDuration: opts.MaxRunDuration,
		Ctx:         opts.Ctx,
	})
	if err != nil {
		return nil, err
	}

	lrRep, m5Rep, m5Preds, err := evaluateBoth(lrModel, m5pModel, testRes.Series, nil)
	if err != nil {
		return nil, err
	}
	hints, err := m5pModel.RootCause(3)
	if err != nil {
		return nil, err
	}
	return &TriLeakResult{
		TrainReport:  m5pModel.Report(),
		M5P:          m5Rep,
		LinReg:       lrRep,
		Trace:        trace(testRes.Series, m5Preds),
		CrashTimeSec: testRes.Series.CrashTimeSec,
		CrashReason:  testRes.Series.CrashReason,
		RootCause:    hints,
	}, nil
}

func init() {
	MustRegister(NewSchemaScenario("trileak",
		"three-resource aging: memory + threads + DB connections, single-resource training",
		features.FullSchemaName,
		func(ctx context.Context, opts Options) (*ScenarioResult, error) {
			res, err := ExperimentTriLeak(opts)
			if err != nil {
				return nil, err
			}
			return &ScenarioResult{
				Metrics: Metrics{"LinReg": res.LinReg, "M5P": res.M5P},
				Summary: res.String(),
			}, nil
		}))
}
