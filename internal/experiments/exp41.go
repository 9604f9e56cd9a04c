package experiments

import (
	"fmt"
	"strings"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/evalx"
	"agingpred/internal/features"
	"agingpred/internal/testbed"
)

// Experiment41Result reproduces Section 4.1 / Table 3: deterministic software
// aging (1 MB leak, N = 30), models trained on executions at 25/50/100/200
// EBs and tested on unseen workloads of 75 and 150 EBs.
type Experiment41Result struct {
	// M5PModel and LinRegModel are the trained models themselves — immutable
	// and persistable, so agingbench can save them as artifacts
	// (-save-models) for agingpredict/agingfleet to serve without
	// retraining.
	M5PModel    *core.Model
	LinRegModel *core.Model
	// TrainReportM5P and TrainReportLinReg describe the trained models (the
	// paper reports 33 leaves / 30 inner nodes over 2776 instances).
	TrainReportM5P    core.TrainReport
	TrainReportLinReg core.TrainReport
	// TrainingInstances is the total number of training checkpoints.
	TrainingInstances int

	// Table3 holds one row group per test workload, keyed "75EBs" and
	// "150EBs"; each group holds the Lin. Reg and M5P reports, in that
	// order, exactly like the columns of Table 3.
	Table3 map[string][]evalx.Report
}

// String renders the result like Table 3.
func (r *Experiment41Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 4.1 — deterministic software aging (Table 3)\n")
	fmt.Fprintf(&b, "  %s\n  %s\n", r.TrainReportM5P, r.TrainReportLinReg)
	for _, key := range []string{"75EBs", "150EBs"} {
		if reports, ok := r.Table3[key]; ok {
			b.WriteString(formatReports("  test workload "+key, reports...))
		}
	}
	return b.String()
}

// Experiment41 runs the deterministic-aging experiment.
func Experiment41(opts Options) (*Experiment41Result, error) {
	opts = opts.withDefaults()

	// Training executions: 4 workloads, constant N=30 leak, run to crash.
	trainSeries, err := constantLeakTrainingRuns(opts, "exp41", 1000)
	if err != nil {
		return nil, err
	}

	// The paper does not add the heap information in this experiment (the
	// -schema flag can override the no-heap default).
	m5pModel, err := trainScenarioModel(opts, core.ModelM5P, features.NoHeapSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training M5P for 4.1: %w", err)
	}
	lrModel, err := trainScenarioModel(opts, core.ModelLinearRegression, features.NoHeapSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training linear regression for 4.1: %w", err)
	}

	out := &Experiment41Result{
		M5PModel:          m5pModel,
		LinRegModel:       lrModel,
		TrainReportM5P:    m5pModel.Report(),
		TrainReportLinReg: lrModel.Report(),
		TrainingInstances: m5pModel.Report().Instances,
		Table3:            make(map[string][]evalx.Report, 2),
	}

	// Test executions: unseen workloads of 75 and 150 EBs.
	for _, ebs := range []int{75, 150} {
		res, err := runUntilCrash(testbed.RunConfig{
			Name:        fmt.Sprintf("exp41-test-%dEB", ebs),
			Seed:        opts.Seed + uint64(2000+ebs),
			EBs:         ebs,
			Phases:      testbed.ConstantLeakPhases(30),
			MaxDuration: opts.MaxRunDuration,
			Ctx:         opts.Ctx,
		})
		if err != nil {
			return nil, err
		}
		lrRep, m5Rep, _, err := evaluateBoth(lrModel, m5pModel, res.Series, nil)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("%dEBs", ebs)
		out.Table3[key] = []evalx.Report{lrRep, m5Rep}
	}
	return out, nil
}

// PaperValue records one row of a published result table (in seconds), used
// for the EXPERIMENTS.md paper-vs-measured comparison.
type PaperValue struct {
	Metric string
	LinReg float64
	M5P    float64
}

// PaperTable3 returns the published Table 3 values (in seconds) keyed by test
// workload. They are reference points for the shape comparison, not targets
// the simulator is expected to hit exactly.
func PaperTable3() map[string][]PaperValue {
	return map[string][]PaperValue{
		"75EBs": {
			{Metric: "MAE", LinReg: 19*60 + 35, M5P: 15*60 + 14},
			{Metric: "S-MAE", LinReg: 14*60 + 17, M5P: 9*60 + 34},
			{Metric: "PRE-MAE", LinReg: 21*60 + 13, M5P: 16*60 + 22},
			{Metric: "POST-MAE", LinReg: 5*60 + 11, M5P: 2*60 + 20},
		},
		"150EBs": {
			{Metric: "MAE", LinReg: 20*60 + 24, M5P: 5*60 + 46},
			{Metric: "S-MAE", LinReg: 17*60 + 24, M5P: 2*60 + 52},
			{Metric: "PRE-MAE", LinReg: 19*60 + 40, M5P: 6*60 + 18},
			{Metric: "POST-MAE", LinReg: 24*60 + 14, M5P: 2*60 + 57},
		},
	}
}

// PaperExperimentDurations documents how long the paper's test executions
// ran, for context in reports.
func PaperExperimentDurations() map[string]time.Duration {
	return map[string]time.Duration{
		"4.2": time.Hour + 47*time.Minute,
		"4.4": time.Hour + 55*time.Minute,
	}
}
