package experiments

import (
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

// training44Runs builds the six single-resource training executions of
// Section 4.4: memory leaks at N = 15, 30, 75 and thread leaks at
// (M, T) = (15, 120), (30, 90), (45, 60), each at constant workload and each
// involving only one resource. The paper stresses that the model never sees
// both resources injected simultaneously during training.
func training44Runs(opts Options) ([]*monitor.Series, error) {
	opts = opts.withDefaults()
	series := make([]*monitor.Series, 0, 6)
	for _, n := range []int{15, 30, 75} {
		res, err := runUntilCrash(testbed.RunConfig{
			Name:        fmt.Sprintf("exp44-train-mem-N%d", n),
			Seed:        opts.Seed + 4400 + uint64(n),
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
	threadRates := []struct{ m, t int }{{15, 120}, {30, 90}, {45, 60}}
	for _, r := range threadRates {
		res, err := runUntilCrash(testbed.RunConfig{
			Name:        fmt.Sprintf("exp44-train-thr-M%d-T%d", r.m, r.t),
			Seed:        opts.Seed + 4500 + uint64(r.m),
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
	return series, nil
}

// experiment44Phases is the two-resource test schedule of Section 4.4: a
// no-injection phase, then three phases of roughly 30 minutes combining
// memory and thread injection at changing rates, the last one running until
// the crash.
func experiment44Phases() []injector.Phase {
	return []injector.Phase{
		{Name: "no injection", Duration: 30 * time.Minute, MemoryMode: injector.MemoryOff},
		{Name: "N=30, M=30, T=90", Duration: 30 * time.Minute, MemoryMode: injector.MemoryLeak, MemoryN: 30, ThreadM: 30, ThreadT: 90},
		{Name: "N=15, M=15, T=120", Duration: 30 * time.Minute, MemoryMode: injector.MemoryLeak, MemoryN: 15, ThreadM: 15, ThreadT: 120},
		{Name: "N=75, M=45, T=60", MemoryMode: injector.MemoryLeak, MemoryN: 75, ThreadM: 45, ThreadT: 60},
	}
}

// Experiment44Result reproduces Section 4.4 / Figure 5: dynamic software
// aging caused by two resources (memory and threads) simultaneously, with a
// model trained only on single-resource executions.
type Experiment44Result struct {
	// TrainReport describes the M5P model (the paper: 35 inner nodes,
	// 36 leaves, 2752 instances from 6 executions).
	TrainReport core.TrainReport
	// M5P and LinReg are the accuracy reports against the test run's actual
	// time to failure (the paper: M5P MAE 16:52, S-MAE 13:22, PRE 18:16,
	// POST 2:05 — about 10% of the 1 h 55 min run).
	M5P    evalx.Report
	LinReg evalx.Report
	// Trace is the Figure 5 series: predicted TTF plus the memory and thread
	// consumption curves.
	Trace []TracePoint
	// PhaseBoundariesSec are the phase-change times.
	PhaseBoundariesSec []float64
	// CrashTimeSec and CrashReason describe the failure.
	CrashTimeSec float64
	CrashReason  string
	// RootCause holds the hints extracted from the top of the learned tree,
	// reproducing the paper's observation that memory and thread attributes
	// dominate the first levels.
	RootCause []core.RootCauseHint
}

// String renders the result.
func (r *Experiment44Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 4.4 — aging due to two resources (Figure 5)\n")
	fmt.Fprintf(&b, "  %s\n", r.TrainReport)
	fmt.Fprintf(&b, "  test run crashed at %.0f s (%s); phase changes at %v\n",
		r.CrashTimeSec, r.CrashReason, r.PhaseBoundariesSec)
	b.WriteString(formatReports("  accuracy vs actual time to failure", r.LinReg, r.M5P))
	b.WriteString(core.FormatRootCause(r.RootCause))
	return b.String()
}

// Experiment44 runs the two-resource experiment.
func Experiment44(opts Options) (*Experiment44Result, error) {
	opts = opts.withDefaults()
	trainSeries, err := training44Runs(opts)
	if err != nil {
		return nil, err
	}

	m5pModel, err := trainScenarioModel(opts, core.ModelM5P, features.FullSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training M5P for 4.4: %w", err)
	}
	lrModel, err := trainScenarioModel(opts, core.ModelLinearRegression, features.FullSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training linear regression for 4.4: %w", err)
	}

	phases := experiment44Phases()
	testRes, err := runUntilCrash(testbed.RunConfig{
		Name:        "exp44-test",
		Seed:        opts.Seed + 4600,
		EBs:         opts.TrainEBs,
		Phases:      phases,
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
	return &Experiment44Result{
		TrainReport:        m5pModel.Report(),
		M5P:                m5Rep,
		LinReg:             lrRep,
		Trace:              trace(testRes.Series, m5Preds),
		PhaseBoundariesSec: phaseBoundaries(phases),
		CrashTimeSec:       testRes.Series.CrashTimeSec,
		CrashReason:        testRes.Series.CrashReason,
		RootCause:          hints,
	}, nil
}

// PaperExperiment44 returns the accuracy figures the paper reports for
// experiment 4.4, in seconds.
func PaperExperiment44() evalx.Report {
	return evalx.Report{
		Model:   "M5P (paper)",
		MAE:     16*60 + 52,
		SMAE:    13*60 + 22,
		PreMAE:  18*60 + 16,
		PostMAE: 2*60 + 5,
	}
}
