package experiments

import (
	"context"
	"fmt"
	"strings"

	"agingpred/internal/adapt"
	"agingpred/internal/core"
	"agingpred/internal/evalx"
	"agingpred/internal/features"
	"agingpred/internal/monitor"
	"agingpred/internal/testbed"
)

// The adaptive scenario is the A/B the paper's title promises and the frozen
// reproduction could not run: the same serving problem handled by a frozen
// model and by an adaptive Supervisor, under a mid-run leak-rate regime
// change the initial training never saw.
//
// Both arms start from a model deliberately trained on a *single* leak rate
// (regime A). EXPERIMENTS.md records why that model is brittle: with one
// rate per resource, the resource's level trajectory carries the same
// information as its consumption speed, so M5P induction keys on levels and
// the model does not generalise across rates. The serving stream then runs a
// few more regime-A executions (both arms predict fine) and switches to
// regime B — the same memory fault leaking ~4× faster. The frozen arm keeps
// mispredicting regime B forever; the adaptive arm resolves each crashed
// run's labels, trips its drift detector, retrains on the freshly collected
// regime-B runs (plus the seeded regime-A coverage), hot-swaps the model
// epoch and recovers.

const (
	// adaptiveTrainN is the regime-A leak rate (1 MB per ~N search hits; the
	// testbed's deterministic-aging fault) and adaptiveShiftN the ~4× faster
	// regime-B rate the serving stream switches to.
	adaptiveTrainN = 45
	adaptiveShiftN = 12
)

// adaptiveRegimes is the serving schedule: a couple of regime-A runs the
// initial model handles, then the regime change.
var adaptiveRegimes = []struct {
	leakN int
	ebs   int
}{
	{adaptiveTrainN, 100},
	{adaptiveTrainN, 140},
	{adaptiveShiftN, 100}, // the regime change
	{adaptiveShiftN, 140},
	{adaptiveShiftN, 80},
	{adaptiveShiftN, 120},
}

// AdaptiveRunReport summarises one serving run of the A/B.
type AdaptiveRunReport struct {
	// Name identifies the run; LeakN and EBs its regime.
	Name  string
	LeakN int
	EBs   int
	// PostChange says whether the run came after the regime change.
	PostChange bool
	// CrashTimeSec is the run's observed crash time.
	CrashTimeSec float64
	// FrozenMAESec and AdaptiveMAESec compare the two arms on this run.
	FrozenMAESec   float64
	AdaptiveMAESec float64
	// Epoch is the model epoch the adaptive arm served this run with.
	Epoch int
}

// ExperimentAdaptiveResult is the outcome of the adaptive-vs-frozen A/B.
type ExperimentAdaptiveResult struct {
	// TrainReport describes the (deliberately narrow) initial model.
	TrainReport core.TrainReport
	// FrozenPre/AdaptivePre aggregate the pre-change runs, FrozenPost/
	// AdaptivePost the post-change runs — the headline comparison.
	FrozenPre    evalx.Report
	AdaptivePre  evalx.Report
	FrozenPost   evalx.Report
	AdaptivePost evalx.Report
	// Runs is the per-run breakdown, in serving order.
	Runs []AdaptiveRunReport
	// Epochs is the final model-epoch count (≥ 2 when adaptation fired);
	// DriftTrips counts detector trips; Retrains published retrains.
	Epochs     int
	DriftTrips int
	Retrains   int
}

// String renders the A/B for humans.
func (r *ExperimentAdaptiveResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive serving — frozen vs adaptive under a leak-rate regime change (N=%d → N=%d)\n",
		adaptiveTrainN, adaptiveShiftN)
	fmt.Fprintf(&b, "  initial model: %s (single-rate training, deliberately brittle)\n", r.TrainReport)
	fmt.Fprintf(&b, "  %-22s %6s %5s %12s %14s %14s %6s\n",
		"run", "leak-N", "EBs", "crash", "frozen MAE", "adaptive MAE", "epoch")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "  %-22s %6d %5d %12s %14s %14s %6d\n",
			run.Name, run.LeakN, run.EBs, evalx.FormatDuration(run.CrashTimeSec),
			evalx.FormatDuration(run.FrozenMAESec), evalx.FormatDuration(run.AdaptiveMAESec), run.Epoch)
	}
	b.WriteString(formatReports("  pre-change aggregate", r.FrozenPre, r.AdaptivePre))
	b.WriteString(formatReports("  post-change aggregate", r.FrozenPost, r.AdaptivePost))
	fmt.Fprintf(&b, "  adaptation: %d drift trips, %d retrains, final epoch %d\n",
		r.DriftTrips, r.Retrains, r.Epochs)
	return b.String()
}

// ExperimentAdaptive runs the frozen-vs-adaptive A/B at one seed. Both arms
// see byte-identical serving runs (the testbed executions are simulated once
// and replayed through both), so the comparison isolates the adaptation.
func ExperimentAdaptive(opts Options) (*ExperimentAdaptiveResult, error) {
	opts = opts.withDefaults()

	// The deliberately narrow initial training set: two run-to-crash
	// executions at the same regime-A leak rate. (Workload differs, rate
	// does not — the brittleness EXPERIMENTS.md documents.)
	var trainSeries []*monitor.Series
	for _, ebs := range []int{60, 120} {
		res, err := runUntilCrash(testbed.RunConfig{
			Name:        fmt.Sprintf("adaptive-train-%dEB", ebs),
			Seed:        opts.Seed + 91000 + uint64(ebs),
			EBs:         ebs,
			Phases:      testbed.ConstantLeakPhases(adaptiveTrainN),
			MaxDuration: opts.MaxRunDuration,
			Ctx:         opts.Ctx,
		})
		if err != nil {
			return nil, err
		}
		trainSeries = append(trainSeries, res.Series)
	}
	model, err := trainScenarioModel(opts, core.ModelM5P, features.FullSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training the adaptive scenario's initial model: %w", err)
	}

	// The adaptive arm: a Supervisor seeded with the initial coverage, driven
	// synchronously (resolve the crashed run, then adapt if drifted) so the
	// whole trajectory is a pure function of the seed.
	sup, err := adapt.NewSupervisor(adapt.Config{
		Seed: trainSeries,
		Detector: adapt.DetectorConfig{
			Window:     64,
			Hysteresis: 4,
		},
	}, model)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	stream := sup.NewStream("adaptive-live")

	out := &ExperimentAdaptiveResult{TrainReport: model.Report()}
	var frozenPre, frozenPost, adaptivePre, adaptivePost []evalx.Prediction
	for i, regime := range adaptiveRegimes {
		res, err := runUntilCrash(testbed.RunConfig{
			Name:        fmt.Sprintf("adaptive-live-%d-N%d-%dEB", i+1, regime.leakN, regime.ebs),
			Seed:        opts.Seed + 92000 + uint64(i)*37,
			EBs:         regime.ebs,
			Phases:      testbed.ConstantLeakPhases(regime.leakN),
			MaxDuration: opts.MaxRunDuration,
			Ctx:         opts.Ctx,
		})
		if err != nil {
			return nil, err
		}
		s := res.Series

		// Frozen arm: the initial model, a fresh session per run.
		frozenPreds, err := model.PredictSeries(s)
		if err != nil {
			return nil, err
		}
		// Adaptive arm: the supervisor's stream, then label resolution and
		// (possibly) a synchronous retrain + epoch swap before the next run.
		epoch := stream.Epoch()
		adaptivePreds := make([]evalx.Prediction, 0, s.Len())
		for _, cp := range s.Checkpoints {
			pred, err := stream.Observe(cp)
			if err != nil {
				return nil, fmt.Errorf("experiments: adaptive arm observing: %w", err)
			}
			adaptivePreds = append(adaptivePreds, evalx.Prediction{
				TimeSec:      cp.TimeSec,
				TrueTTF:      cp.TTFSec,
				PredictedTTF: pred.TTFSec,
			})
		}
		// Resolve the crash (label feedback + training-run collection), adapt
		// if the detector tripped, then Reset — in that order, so the stream
		// adopts a just-published epoch for the very next run.
		stream.ResolveCrash(s.CrashTimeSec)
		if !sup.Adapt() {
			// Either nothing was due (no drift) or the retrain failed; a
			// failure must abort the cell rather than silently reporting a
			// frozen trajectory as "adaptive".
			if err := sup.Err(); err != nil {
				return nil, fmt.Errorf("experiments: adaptive arm: %w", err)
			}
		}
		stream.Reset()

		frozenRep, err := evalx.Evaluate(frozenPreds, evalx.Options{Model: "frozen"})
		if err != nil {
			return nil, err
		}
		adaptiveRep, err := evalx.Evaluate(adaptivePreds, evalx.Options{Model: "adaptive"})
		if err != nil {
			return nil, err
		}
		post := regime.leakN != adaptiveTrainN
		out.Runs = append(out.Runs, AdaptiveRunReport{
			Name:           s.Name,
			LeakN:          regime.leakN,
			EBs:            regime.ebs,
			PostChange:     post,
			CrashTimeSec:   s.CrashTimeSec,
			FrozenMAESec:   frozenRep.MAE,
			AdaptiveMAESec: adaptiveRep.MAE,
			Epoch:          epoch,
		})
		if post {
			frozenPost = append(frozenPost, frozenPreds...)
			adaptivePost = append(adaptivePost, adaptivePreds...)
		} else {
			frozenPre = append(frozenPre, frozenPreds...)
			adaptivePre = append(adaptivePre, adaptivePreds...)
		}
	}

	if out.FrozenPre, err = evalx.Evaluate(frozenPre, evalx.Options{Model: "frozen"}); err != nil {
		return nil, err
	}
	if out.AdaptivePre, err = evalx.Evaluate(adaptivePre, evalx.Options{Model: "adaptive"}); err != nil {
		return nil, err
	}
	if out.FrozenPost, err = evalx.Evaluate(frozenPost, evalx.Options{Model: "frozen"}); err != nil {
		return nil, err
	}
	if out.AdaptivePost, err = evalx.Evaluate(adaptivePost, evalx.Options{Model: "adaptive"}); err != nil {
		return nil, err
	}
	stats := sup.Stats()
	out.Epochs = stats.Epoch
	out.DriftTrips = stats.Trips
	out.Retrains = stats.Retrains
	return out, nil
}

func init() {
	MustRegister(NewSchemaScenario("adaptive",
		"frozen vs adaptive serving under a mid-run leak-rate regime change (drift detection + background retrain + epoch swap)",
		features.FullSchemaName,
		func(ctx context.Context, opts Options) (*ScenarioResult, error) {
			res, err := ExperimentAdaptive(opts)
			if err != nil {
				return nil, err
			}
			return &ScenarioResult{
				Metrics: Metrics{
					"pre/frozen":    res.FrozenPre,
					"pre/adaptive":  res.AdaptivePre,
					"post/frozen":   res.FrozenPost,
					"post/adaptive": res.AdaptivePost,
				},
				Summary: res.String(),
			}, nil
		}))
}
