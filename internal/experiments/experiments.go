// Package experiments reproduces the evaluation of the paper, experiment by
// experiment: the two motivating examples of Section 2.1 (Figures 1 and 2)
// and the four prediction experiments of Section 4 (Table 3, Figure 3,
// Table 4 + Figure 4, Figure 5).
//
// Every experiment is a plain function that runs the required testbed
// executions, trains the models, evaluates them with the paper's metrics and
// returns a result struct with both the numbers (evalx.Report) and the
// series needed to redraw the figures. The cmd/agingbench binary and the
// top-level benchmarks print these results next to the values the paper
// reports, and EXPERIMENTS.md records the comparison.
//
// Absolute values cannot match the paper (the substrate is a simulator, not
// the authors' 2010 testbed); the shape criteria listed in DESIGN.md are what
// these experiments are expected to reproduce. The golden tests additionally
// pin the reproduced seed-1 numbers so refactors cannot drift them silently.
//
// # The scenario engine
//
// Beyond the one-shot experiment functions, the package hosts a scenario
// engine: experiments implement the Scenario interface, register themselves
// in a registry, and Engine.RunMatrix sweeps scenario×seed matrices on a
// worker pool with deterministic result ordering, per-cell failure isolation,
// context cancellation, and cross-seed aggregate statistics (mean/stddev of
// MAE, S-MAE, PRE/POST-MAE) that the paper's single-seed tables cannot give.
// The built-in scenarios are the paper's experiments ("4.1".."4.4") plus two
// extended workloads: "bursty" (aging hidden under traffic spikes) and
// "trileak" (memory + threads + DB connections aging simultaneously).
//
// # Writing a new scenario
//
// A scenario is any type implementing Scenario; for the common case wrap a
// function with NewScenario and register it at init time:
//
//	func init() {
//		experiments.MustRegister(experiments.NewScenario("myscenario",
//			"one-line description shown by agingbench -list",
//			func(ctx context.Context, opts Options) (*experiments.ScenarioResult, error) {
//				// 1. Run testbed executions. Derive every run's Seed from
//				//    opts.Seed (plus a scenario-private offset) so the
//				//    scenario is deterministic per seed, and forward
//				//    opts.Ctx into each testbed.RunConfig so seed sweeps
//				//    can be cancelled.
//				// 2. Train predictors on the training series.
//				// 3. Evaluate on the test series with internal/evalx.
//				// 4. Return the named reports; keys become the aggregate
//				//    rows ("M5P", "75EBs/LinReg", ...).
//				return &experiments.ScenarioResult{
//					Metrics: experiments.Metrics{"M5P": report},
//					Summary: "human-readable tables",
//				}, nil
//			}))
//	}
//
// The contract the engine relies on: Run must be deterministic in opts.Seed
// (the same cell always yields bit-identical metrics, no wall-clock or
// global state), must not retain state between calls (cells run concurrently
// on sibling goroutines), and should honour ctx so cancellation reaches the
// simulator. Nothing else is required — once registered, the scenario is
// sweepable via agingbench -scenario and aggregated like the built-ins.
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

// Options tunes how the experiments run. The zero value reproduces the
// paper's setup as closely as the simulator allows.
type Options struct {
	// Seed drives all randomness; the same seed reproduces the same numbers.
	Seed uint64
	// MaxRunDuration bounds individual testbed executions (0 = 8 h, enough
	// for the slowest leak rates to crash).
	MaxRunDuration time.Duration
	// TrainEBs is the workload used for the constant-rate training runs of
	// experiments 4.2–4.4 (0 = 100, the workload of the paper's periodic
	// experiment).
	TrainEBs int
	// Schema optionally overrides the feature schema the experiment's
	// primary models are built on, by registry name ("full+conn", ...).
	// Empty keeps each experiment's paper-faithful default. Models whose
	// schema *is* the experiment keep their pinned schema regardless: 4.3's
	// expert feature selection, and the connleak scenario's full vs
	// full+conn A/B (which ignores the override entirely).
	Schema string
	// Ctx optionally cancels the experiment between (and inside) testbed
	// executions; the scenario engine sets it so a whole seed sweep can be
	// aborted. A nil Ctx means the experiment runs to completion. The
	// cancellation probe never perturbs the simulation, so runs with a live
	// context reproduce exactly the numbers of runs without one.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.MaxRunDuration <= 0 {
		o.MaxRunDuration = 8 * time.Hour
	}
	if o.TrainEBs <= 0 {
		o.TrainEBs = 100
	}
	return o
}

// trainScenarioModel fits an immutable model for one of an experiment's
// primary model families on the experiment's training series. The model
// learns on the experiment's paper-faithful schema (schemaName), or on the
// schema named by Options.Schema when the caller overrides it (the
// agingbench -schema flag); an unknown schema name fails fast with the list
// of valid names. Evaluation then runs through per-stream sessions
// (Model.PredictSeries and friends), never by mutating a shared predictor.
func trainScenarioModel(opts Options, model core.ModelKind, schemaName string, series []*monitor.Series) (*core.Model, error) {
	if opts.Schema != "" {
		schemaName = opts.Schema
	}
	schema, err := features.LookupSchema(schemaName)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return core.Train(core.Config{Model: model, Schema: schema}, series)
}

// TracePoint is one sample of a predicted-vs-observed trace, used to redraw
// Figures 3, 4 and 5.
type TracePoint struct {
	// TimeSec is the checkpoint time.
	TimeSec float64
	// PredictedTTFSec is the model's predicted time to failure.
	PredictedTTFSec float64
	// ReferenceTTFSec is the "true" time to failure the prediction is
	// compared against.
	ReferenceTTFSec float64
	// TomcatMemoryMB is the OS-perspective server memory (Figure 3's grey
	// line).
	TomcatMemoryMB float64
	// HeapUsedMB is the JVM-perspective heap usage (Figure 4's grey line).
	HeapUsedMB float64
	// NumThreads is the server thread count (Figure 5's extra line).
	NumThreads float64
}

// constantLeakTrainingRuns builds the deterministic-aging training set of
// experiment 4.1, shared with the bursty scenario: run-to-crash executions
// with a constant N=30 leak at each of the four paper workloads. namePrefix
// and seedBase keep different scenarios' runs distinguishable and their
// random streams independent.
func constantLeakTrainingRuns(opts Options, namePrefix string, seedBase uint64) ([]*monitor.Series, error) {
	series := make([]*monitor.Series, 0, 4)
	for _, ebs := range []int{25, 50, 100, 200} {
		res, err := runUntilCrash(testbed.RunConfig{
			Name:        fmt.Sprintf("%s-train-%dEB", namePrefix, ebs),
			Seed:        opts.Seed + seedBase + uint64(ebs),
			EBs:         ebs,
			Phases:      testbed.ConstantLeakPhases(30),
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

// runUntilCrash executes one testbed run and fails if it did not crash.
func runUntilCrash(cfg testbed.RunConfig) (*testbed.Result, error) {
	res, err := testbed.Run(cfg)
	if err != nil {
		return nil, err
	}
	if !res.Crashed {
		return nil, fmt.Errorf("experiments: run %q did not crash within %v (leak too slow for the configured horizon)",
			cfg.Name, cfg.MaxDuration)
	}
	return res, nil
}

// trace builds the TracePoint series for a test run from its checkpoints,
// the model predictions and the reference labels.
func trace(s *monitor.Series, preds []evalx.Prediction) []TracePoint {
	points := make([]TracePoint, 0, len(preds))
	for i, p := range preds {
		cp := s.Checkpoints[i]
		points = append(points, TracePoint{
			TimeSec:         p.TimeSec,
			PredictedTTFSec: p.PredictedTTF,
			ReferenceTTFSec: p.TrueTTF,
			TomcatMemoryMB:  cp.TomcatMemUsedMB,
			HeapUsedMB:      cp.YoungUsedMB + cp.OldUsedMB,
			NumThreads:      cp.NumThreads,
		})
	}
	return points
}

// evaluateBoth trains nothing; it evaluates two already-trained models on
// the same series with the same reference labels and returns (linreg, m5p)
// reports. Each model replays the series through its own fresh session.
func evaluateBoth(lr, m5 *core.Model, s *monitor.Series, ref []float64) (evalx.Report, evalx.Report, []evalx.Prediction, error) {
	var (
		lrPreds, m5Preds []evalx.Prediction
		err              error
	)
	if ref != nil {
		lrPreds, err = lr.PredictSeriesAgainst(s, ref)
	} else {
		lrPreds, err = lr.PredictSeries(s)
	}
	if err != nil {
		return evalx.Report{}, evalx.Report{}, nil, fmt.Errorf("experiments: linear regression predictions: %w", err)
	}
	if ref != nil {
		m5Preds, err = m5.PredictSeriesAgainst(s, ref)
	} else {
		m5Preds, err = m5.PredictSeries(s)
	}
	if err != nil {
		return evalx.Report{}, evalx.Report{}, nil, fmt.Errorf("experiments: M5P predictions: %w", err)
	}
	lrRep, err := evalx.Evaluate(lrPreds, evalx.Options{Model: "Lin. Reg"})
	if err != nil {
		return evalx.Report{}, evalx.Report{}, nil, err
	}
	m5Rep, err := evalx.Evaluate(m5Preds, evalx.Options{Model: "M5P"})
	if err != nil {
		return evalx.Report{}, evalx.Report{}, nil, err
	}
	return lrRep, m5Rep, m5Preds, nil
}

// phaseBoundaries returns the cumulative start times (seconds) of each phase
// after the first, for annotating figures.
func phaseBoundaries(phases []injector.Phase) []float64 {
	var out []float64
	acc := 0.0
	for i, p := range phases {
		if i > 0 {
			out = append(out, acc)
		}
		acc += p.Duration.Seconds()
	}
	return out
}

// formatReports renders a labelled group of reports as a Table 3/4-style
// block.
func formatReports(title string, reports ...evalx.Report) string {
	var b strings.Builder
	b.WriteString(evalx.Table(title, reports))
	return b.String()
}
