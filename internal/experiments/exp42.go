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

// training42Runs builds the training set shared by experiments 4.2 and 4.3:
// one one-hour execution with no injection plus three run-to-crash executions
// with constant leak rates N = 15, 30 and 75, all at the same constant
// workload.
func training42Runs(opts Options) ([]*monitor.Series, error) {
	opts = opts.withDefaults()
	series := make([]*monitor.Series, 0, 4)

	noInj, err := testbed.Run(testbed.RunConfig{
		Name:        "exp42-train-noinjection",
		Seed:        opts.Seed + 3000,
		EBs:         opts.TrainEBs,
		Phases:      testbed.NoInjectionPhases(),
		MaxDuration: time.Hour,
		Ctx:         opts.Ctx,
	})
	if err != nil {
		return nil, err
	}
	if noInj.Crashed {
		return nil, fmt.Errorf("experiments: the no-injection training run crashed (%s); the baseline server is not supposed to age", noInj.CrashReason)
	}
	series = append(series, noInj.Series)

	for _, n := range []int{15, 30, 75} {
		res, err := runUntilCrash(testbed.RunConfig{
			Name:        fmt.Sprintf("exp42-train-N%d", n),
			Seed:        opts.Seed + 3000 + uint64(n),
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
	return series, nil
}

// experiment42Phases is the dynamic-aging test schedule of Section 4.2:
// 20 minutes without injection, 20 minutes at N=30, 20 minutes at N=15, then
// N=75 until the crash.
func experiment42Phases() []injector.Phase {
	return []injector.Phase{
		{Name: "no injection", Duration: 20 * time.Minute, MemoryMode: injector.MemoryOff},
		{Name: "N=30", Duration: 20 * time.Minute, MemoryMode: injector.MemoryLeak, MemoryN: 30},
		{Name: "N=15", Duration: 20 * time.Minute, MemoryMode: injector.MemoryLeak, MemoryN: 15},
		{Name: "N=75", MemoryMode: injector.MemoryLeak, MemoryN: 75},
	}
}

// frozenReferenceTTF computes the per-checkpoint reference time-to-failure
// the paper uses for experiment 4.2: "we fix the current injection rate and
// then simulate the system until a crash occurs". For every phase of the test
// schedule it re-runs the testbed with that phase extended indefinitely (same
// seed, so the prefix is identical) and uses the resulting crash time as the
// reference for checkpoints belonging to that phase. Phases that never crash
// (no injection) get the paper's infinite horizon.
func frozenReferenceTTF(base testbed.RunConfig, phases []injector.Phase, test *monitor.Series) ([]float64, error) {
	// Crash time per phase, by freezing that phase.
	crashAt := make([]float64, len(phases))
	for i := range phases {
		frozen := make([]injector.Phase, i+1)
		copy(frozen, phases[:i+1])
		frozen[i].Duration = 0 // extend until the end of the run
		cfg := base
		cfg.Name = fmt.Sprintf("%s-frozen-phase%d", base.Name, i)
		cfg.Phases = frozen
		cfg.MaxDuration = base.MaxDuration + 6*time.Hour
		res, err := testbed.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: frozen run for phase %d: %w", i, err)
		}
		if res.Crashed {
			crashAt[i] = res.Series.CrashTimeSec
		} else {
			crashAt[i] = -1 // no crash under this rate
		}
	}

	// Phase index per checkpoint, from the cumulative phase durations.
	boundaries := make([]float64, len(phases))
	acc := 0.0
	for i, p := range phases {
		acc += p.Duration.Seconds()
		if p.Duration == 0 {
			acc = -1 // open-ended last phase
		}
		boundaries[i] = acc
	}
	refs := make([]float64, test.Len())
	for i, cp := range test.Checkpoints {
		phase := len(phases) - 1
		for j, b := range boundaries {
			if b >= 0 && cp.TimeSec <= b {
				phase = j
				break
			}
		}
		if crashAt[phase] < 0 {
			refs[i] = monitor.InfiniteTTFSec
			continue
		}
		ttf := crashAt[phase] - cp.TimeSec
		if ttf < 0 {
			ttf = 0
		}
		if ttf > monitor.InfiniteTTFSec {
			ttf = monitor.InfiniteTTFSec
		}
		refs[i] = ttf
	}
	return refs, nil
}

// Experiment42Result reproduces Section 4.2 / Figure 3: dynamic and variable
// software aging under constant workload.
type Experiment42Result struct {
	// TrainReport describes the M5P model (the paper: 36 leaves, 35 inner
	// nodes, 1710 instances).
	TrainReport core.TrainReport
	// M5P and LinReg are the accuracy reports against the frozen-rate
	// reference TTF (the paper: M5P MAE 16:26, S-MAE 13:03, PRE 17:15,
	// POST 8:14; Linear Regression "really unacceptable").
	M5P    evalx.Report
	LinReg evalx.Report
	// Trace is the Figure 3 series: predicted TTF vs Tomcat memory.
	Trace []TracePoint
	// PhaseBoundariesSec are the phase-change times for annotating the
	// figure.
	PhaseBoundariesSec []float64
	// CrashTimeSec is when the test execution crashed.
	CrashTimeSec float64
}

// String renders the result.
func (r *Experiment42Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment 4.2 — dynamic and variable software aging (Figure 3)\n")
	fmt.Fprintf(&b, "  %s\n", r.TrainReport)
	fmt.Fprintf(&b, "  test run crashed at %.0f s; phase changes at %v\n", r.CrashTimeSec, r.PhaseBoundariesSec)
	b.WriteString(formatReports("  accuracy vs frozen-rate reference", r.LinReg, r.M5P))
	return b.String()
}

// Experiment42 runs the dynamic-aging experiment.
func Experiment42(opts Options) (*Experiment42Result, error) {
	opts = opts.withDefaults()
	trainSeries, err := training42Runs(opts)
	if err != nil {
		return nil, err
	}

	m5pModel, err := trainScenarioModel(opts, core.ModelM5P, features.FullSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training M5P for 4.2: %w", err)
	}
	lrModel, err := trainScenarioModel(opts, core.ModelLinearRegression, features.FullSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training linear regression for 4.2: %w", err)
	}

	phases := experiment42Phases()
	testCfg := testbed.RunConfig{
		Name:        "exp42-test",
		Seed:        opts.Seed + 3500,
		EBs:         opts.TrainEBs,
		Phases:      phases,
		MaxDuration: opts.MaxRunDuration,
		Ctx:         opts.Ctx,
	}
	testRes, err := runUntilCrash(testCfg)
	if err != nil {
		return nil, err
	}
	refs, err := frozenReferenceTTF(testCfg, phases, testRes.Series)
	if err != nil {
		return nil, err
	}
	lrRep, m5Rep, m5Preds, err := evaluateBoth(lrModel, m5pModel, testRes.Series, refs)
	if err != nil {
		return nil, err
	}
	return &Experiment42Result{
		TrainReport:        m5pModel.Report(),
		M5P:                m5Rep,
		LinReg:             lrRep,
		Trace:              trace(testRes.Series, m5Preds),
		PhaseBoundariesSec: phaseBoundaries(phases),
		CrashTimeSec:       testRes.Series.CrashTimeSec,
	}, nil
}

// PaperExperiment42 returns the accuracy figures the paper reports for
// experiment 4.2 (M5P only; Linear Regression is described as unacceptable),
// in seconds.
func PaperExperiment42() evalx.Report {
	return evalx.Report{
		Model:   "M5P (paper)",
		MAE:     16*60 + 26,
		SMAE:    13*60 + 3,
		PreMAE:  17*60 + 15,
		PostMAE: 8*60 + 14,
	}
}
