package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/evalx"
	"agingpred/internal/features"
	"agingpred/internal/testbed"
)

// The bursty scenario goes beyond the paper: the same deterministic memory
// leak as experiment 4.1, but the test workload alternates between a calm
// baseline and traffic spikes three times larger. Because the injection is
// request-coupled, the aging speed itself surges with every spike, so the
// consumption signal the models learned from constant-load executions is
// buried under load bursts. This is the "variable workload" future work the
// paper sketches in its conclusions.

// burstyBaseEBs and burstySpikeEBs are the two load levels; burstyPeriod is
// the half-cycle length.
const (
	burstyBaseEBs  = 60
	burstySpikeEBs = 180
	burstyPeriod   = 10 * time.Minute
	// burstyCycles bounds the alternation; runs that somehow survive it fall
	// into an open-ended baseline tail.
	burstyCycles = 24
)

// BurstyResult is the outcome of the bursty-load scenario.
type BurstyResult struct {
	// TrainReport describes the M5P model, trained exactly like experiment
	// 4.1 (constant workloads, constant leak).
	TrainReport core.TrainReport
	// M5P and LinReg are the accuracy reports on the bursty test execution,
	// against the actual time to failure.
	M5P    evalx.Report
	LinReg evalx.Report
	// Trace allows redrawing the prediction-vs-load figure.
	Trace []TracePoint
	// CrashTimeSec is when the bursty execution crashed.
	CrashTimeSec float64
	// Spikes is how many complete load spikes the run survived.
	Spikes int
	// BaselineThroughput and SpikeThroughput are the mean request rates
	// (req/s) observed during baseline and spike half-cycles, documenting
	// how violently the load actually moved.
	BaselineThroughput float64
	SpikeThroughput    float64
}

// String renders the result.
func (r *BurstyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario bursty — aging hidden under traffic spikes (%d↔%d EBs every %v)\n",
		burstyBaseEBs, burstySpikeEBs, burstyPeriod)
	fmt.Fprintf(&b, "  %s\n", r.TrainReport)
	fmt.Fprintf(&b, "  test run crashed at %.0f s after %d complete spikes (throughput %.1f → %.1f req/s)\n",
		r.CrashTimeSec, r.Spikes, r.BaselineThroughput, r.SpikeThroughput)
	b.WriteString(formatReports("  accuracy vs actual time to failure", r.LinReg, r.M5P))
	return b.String()
}

// ExperimentBursty trains on constant-workload leak executions (the 4.1
// training set at its own seed offsets) and tests on a bursty workload with
// the same leak.
func ExperimentBursty(opts Options) (*BurstyResult, error) {
	opts = opts.withDefaults()

	trainSeries, err := constantLeakTrainingRuns(opts, "bursty", 5000)
	if err != nil {
		return nil, err
	}

	m5pModel, err := trainScenarioModel(opts, core.ModelM5P, features.NoHeapSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training M5P for bursty scenario: %w", err)
	}
	lrModel, err := trainScenarioModel(opts, core.ModelLinearRegression, features.NoHeapSchemaName, trainSeries)
	if err != nil {
		return nil, fmt.Errorf("experiments: training linear regression for bursty scenario: %w", err)
	}

	// Test: the same leak rate, but the load alternates baseline and spike
	// half-cycles until the retained leak exhausts the heap.
	testRes, err := runUntilCrash(testbed.RunConfig{
		Name:           "bursty-test",
		Seed:           opts.Seed + 5900,
		EBs:            burstySpikeEBs,
		WorkloadPhases: testbed.BurstyWorkloadPhases(burstyBaseEBs, burstySpikeEBs, burstyPeriod, burstyCycles),
		Phases:         testbed.ConstantLeakPhases(30),
		MaxDuration:    opts.MaxRunDuration,
		Ctx:            opts.Ctx,
	})
	if err != nil {
		return nil, err
	}

	lrRep, m5Rep, m5Preds, err := evaluateBoth(lrModel, m5pModel, testRes.Series, nil)
	if err != nil {
		return nil, err
	}

	// Mean throughput per half-cycle kind, skipping the first two minutes of
	// each half-cycle so population ramps do not blur the contrast. The
	// open-ended baseline tail after the last cycle no longer alternates and
	// is left out.
	var baseSum, spikeSum float64
	var baseN, spikeN int
	period := burstyPeriod.Seconds()
	for _, cp := range testRes.Series.Checkpoints {
		if cp.TimeSec >= 2*burstyCycles*period {
			break
		}
		inCycle := cp.TimeSec - math.Floor(cp.TimeSec/period)*period
		if inCycle < 120 {
			continue
		}
		if int(cp.TimeSec/period)%2 == 0 {
			baseSum += cp.Throughput
			baseN++
		} else {
			spikeSum += cp.Throughput
			spikeN++
		}
	}
	// Spikes stop after the alternation gives way to the baseline tail, so
	// the count is capped at the cycles that actually happened.
	spikes := int(testRes.Series.CrashTimeSec / (2 * burstyPeriod).Seconds())
	if spikes > burstyCycles {
		spikes = burstyCycles
	}
	out := &BurstyResult{
		TrainReport:  m5pModel.Report(),
		M5P:          m5Rep,
		LinReg:       lrRep,
		Trace:        trace(testRes.Series, m5Preds),
		CrashTimeSec: testRes.Series.CrashTimeSec,
		Spikes:       spikes,
	}
	if baseN > 0 {
		out.BaselineThroughput = baseSum / float64(baseN)
	}
	if spikeN > 0 {
		out.SpikeThroughput = spikeSum / float64(spikeN)
	}
	return out, nil
}

func init() {
	MustRegister(NewSchemaScenario("bursty",
		"aging hidden under traffic spikes: constant leak, alternating 60/180 EB load",
		features.NoHeapSchemaName,
		func(ctx context.Context, opts Options) (*ScenarioResult, error) {
			res, err := ExperimentBursty(opts)
			if err != nil {
				return nil, err
			}
			return &ScenarioResult{
				Metrics: Metrics{"LinReg": res.LinReg, "M5P": res.M5P},
				Summary: res.String(),
			}, nil
		}))
}
