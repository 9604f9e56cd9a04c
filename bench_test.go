package agingpred

// Top-level benchmarks: one per table and figure of the paper's evaluation
// section, plus ablation benchmarks for the design choices called out in
// DESIGN.md. Each benchmark runs the corresponding experiment end to end
// (testbed simulation, feature extraction, model training, evaluation) and
// reports the headline accuracy numbers through b.ReportMetric, so that
//
//	go test -bench=. -benchmem
//
// regenerates the paper's results and records how expensive they are to
// produce.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/evalx"
	"agingpred/internal/experiments"
	"agingpred/internal/features"
	"agingpred/internal/fleet"
	"agingpred/internal/monitor"
	"agingpred/internal/obs"
	"agingpred/internal/testbed"
)

// benchSeed keeps every benchmark deterministic.
const benchSeed = 1

// BenchmarkFigure1 regenerates Figure 1: non-linear OS-level memory under a
// constant-rate leak.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(experiments.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.OldResizes), "old-resizes")
		b.ReportMetric(res.ExtraLifetimeSec, "extra-lifetime-sec")
	}
}

// BenchmarkFigure2 regenerates Figure 2: OS vs JVM perspective of a periodic
// acquire/release pattern.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(experiments.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.JVMViewRangeMB, "jvm-range-mb")
		b.ReportMetric(res.OSViewRangeMB, "os-range-mb")
	}
}

// BenchmarkTable3 regenerates Table 3 (experiment 4.1): deterministic aging,
// Linear Regression vs M5P on two unseen workloads.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Experiment41(experiments.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Table3["150EBs"][1].MAE, "m5p-150eb-mae-sec")
		b.ReportMetric(res.Table3["150EBs"][0].MAE, "linreg-150eb-mae-sec")
	}
}

// BenchmarkFigure3 regenerates Figure 3 and the experiment 4.2 accuracy
// numbers: dynamic and variable aging.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Experiment42(experiments.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.M5P.MAE, "m5p-mae-sec")
		b.ReportMetric(res.LinReg.MAE, "linreg-mae-sec")
	}
}

// BenchmarkTable4Figure4 regenerates Table 4 and Figure 4 (experiment 4.3):
// aging hidden inside a periodic pattern, with expert feature selection.
func BenchmarkTable4Figure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Experiment43(experiments.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Table4[1].MAE, "m5p-selected-mae-sec")
		b.ReportMetric(res.Table4[1].PostMAE, "m5p-selected-postmae-sec")
		b.ReportMetric(res.Table4[0].PostMAE, "linreg-postmae-sec")
	}
}

// BenchmarkFigure5 regenerates Figure 5 (experiment 4.4): aging caused by two
// resources at once, trained only on single-resource executions.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Experiment44(experiments.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.M5P.MAE, "m5p-mae-sec")
		b.ReportMetric(res.M5P.PostMAE, "m5p-postmae-sec")
	}
}

// BenchmarkScenarioMatrix measures the scenario engine on a small
// scenario×seed matrix at full parallelism, reporting sweep throughput in
// cells/sec — the number that tells how many scenarios the hardware can
// absorb per unit of time.
func BenchmarkScenarioMatrix(b *testing.B) {
	scenarios, err := experiments.LookupAll([]string{"4.1", "bursty"})
	if err != nil {
		b.Fatal(err)
	}
	seeds := []uint64{1, 2}
	engine := &experiments.Engine{}
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.RunMatrix(context.Background(), scenarios, seeds, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		if failed := res.FailedCells(); len(failed) > 0 {
			b.Fatalf("%d cells failed, first: %v", len(failed), failed[0].Err)
		}
		cells += len(res.Cells)
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkFleet measures the fleet subsystem's serving throughput in
// instance-checkpoints/sec at 1 shard, 4 shards and one shard per available
// CPU. The shared model is trained once outside the timed loop; every run
// streams the same deterministic 256-instance fleet through the sharded
// predictor workers, so the shard axis isolates the scaling of the
// prediction layer itself. The obs-off case repeats the 4-shard run with the
// global metrics gate off: against shards-4 it is the measured cost of the
// instrumentation.
func BenchmarkFleet(b *testing.B) {
	model, err := fleet.TrainModel(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, shards int) {
		checkpoints := int64(0)
		for i := 0; i < b.N; i++ {
			rep, err := fleet.Run(fleet.Config{
				Instances: 256,
				Shards:    shards,
				Duration:  45 * time.Minute,
				Seed:      benchSeed,
				Model:     model,
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Checkpoints == 0 {
				b.Fatal("fleet predicted no checkpoints")
			}
			checkpoints += rep.Checkpoints
		}
		b.ReportMetric(float64(checkpoints)/b.Elapsed().Seconds(), "instance-checkpoints/sec")
	}
	shardCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, shards := range shardCounts {
		if shards < 1 || seen[shards] {
			continue
		}
		seen[shards] = true
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) { run(b, shards) })
	}
	b.Run("obs-off", func(b *testing.B) {
		obs.SetEnabled(false)
		defer obs.SetEnabled(true)
		run(b, 4)
	})
}

// BenchmarkFleetBatch isolates the batched prediction engine from the fleet
// simulation: a shard-sized group of sessions of one shared model serves the
// same deterministic checkpoint stream, either one Session.Observe at a time
// (scalar) or staged into a core.Batch and evaluated with one PredictBatch
// sweep per tick (batch). One op is one tick of the whole group, so the pair
// is the scalar-vs-batch before/after of the serving hot path; the
// differential suite proves the two produce bit-identical predictions.
func BenchmarkFleetBatch(b *testing.B) {
	model, err := fleet.TrainModel(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	series, err := fleet.TrainingSeries(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	cps := series[0].Checkpoints
	// Replaying the stream cyclically must keep checkpoint time monotone or
	// the sliding-window speed trackers would reject every post-wrap sample.
	tickAt := func(i int) monitor.Checkpoint {
		cp := cps[i%len(cps)]
		cp.TimeSec = float64(i+1) * series[0].IntervalSec
		return cp
	}
	const group = 256
	newSessions := func() []*core.Session {
		sessions := make([]*core.Session, group)
		for i := range sessions {
			sessions[i] = model.NewSession()
		}
		return sessions
	}
	b.Run("scalar", func(b *testing.B) {
		sessions := newSessions()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp := tickAt(i)
			for _, s := range sessions {
				if _, err := s.Observe(cp); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*group/b.Elapsed().Seconds(), "instance-checkpoints/sec")
	})
	b.Run("batch", func(b *testing.B) {
		sessions := newSessions()
		batch := model.NewBatch(group)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp := tickAt(i)
			batch.Reset()
			for _, s := range sessions {
				if err := batch.Stage(s, &cp); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := batch.Predict(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*group/b.Elapsed().Seconds(), "instance-checkpoints/sec")
	})
}

// --- ablation benchmarks -------------------------------------------------

// ablationData builds (once) a deterministic-aging training set and test
// series shared by the ablation benchmarks.
var ablationCache struct {
	train []*monitor.Series
	test  *monitor.Series
}

func ablationData(b *testing.B) ([]*monitor.Series, *monitor.Series) {
	b.Helper()
	if ablationCache.test != nil {
		return ablationCache.train, ablationCache.test
	}
	var train []*monitor.Series
	for _, ebs := range []int{50, 100, 200} {
		res, err := testbed.Run(testbed.RunConfig{
			Name:        "ablation-train",
			Seed:        uint64(ebs),
			EBs:         ebs,
			Phases:      testbed.ConstantLeakPhases(30),
			MaxDuration: 6 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		train = append(train, res.Series)
	}
	res, err := testbed.Run(testbed.RunConfig{
		Name:        "ablation-test",
		Seed:        12345,
		EBs:         150,
		Phases:      testbed.ConstantLeakPhases(30),
		MaxDuration: 6 * time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	ablationCache.train, ablationCache.test = train, res.Series
	return train, res.Series
}

// benchSchema returns the registered feature schema with the given name.
func benchSchema(b *testing.B, name string) *features.Schema {
	b.Helper()
	s, err := features.LookupSchema(name)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// evalConfig trains a model with the given configuration on the ablation
// data and reports its MAE.
func evalConfig(b *testing.B, cfg core.Config) float64 {
	b.Helper()
	train, test := ablationData(b)
	m, err := core.Train(cfg, train)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := m.Evaluate(test, evalx.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return rep.MAE
}

// BenchmarkAblationWindow varies the sliding-window length the derived speed
// features are smoothed over (the paper discusses the noise-vs-delay
// trade-off in Sections 2.2 and 4.2).
func BenchmarkAblationWindow(b *testing.B) {
	for _, window := range []int{4, 12, 40} {
		b.Run(map[int]string{4: "w4", 12: "w12", 40: "w40"}[window], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mae := evalConfig(b, core.Config{WindowLength: window})
				b.ReportMetric(mae, "mae-sec")
			}
		})
	}
}

// BenchmarkAblationMinLeaf varies the minimum number of instances per M5P
// leaf (the paper uses 10).
func BenchmarkAblationMinLeaf(b *testing.B) {
	for _, minLeaf := range []int{4, 10, 40} {
		b.Run(map[int]string{4: "leaf4", 10: "leaf10", 40: "leaf40"}[minLeaf], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mae := evalConfig(b, core.Config{MinLeafInstances: minLeaf})
				b.ReportMetric(mae, "mae-sec")
			}
		})
	}
}

// BenchmarkAblationSmoothing toggles M5P prediction smoothing and pruning.
func BenchmarkAblationSmoothing(b *testing.B) {
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{name: "default", cfg: core.Config{}},
		{name: "no-smoothing", cfg: core.Config{NoSmoothing: true}},
		{name: "unpruned", cfg: core.Config{Unpruned: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mae := evalConfig(b, c.cfg)
				b.ReportMetric(mae, "mae-sec")
			}
		})
	}
}

// BenchmarkAblationModels compares the three model families on the same data
// (the comparison behind the paper's choice of M5P).
func BenchmarkAblationModels(b *testing.B) {
	for _, kind := range []core.ModelKind{core.ModelM5P, core.ModelLinearRegression, core.ModelRegressionTree} {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mae := evalConfig(b, core.Config{Model: kind, Schema: benchSchema(b, features.NoHeapSchemaName)})
				b.ReportMetric(mae, "mae-sec")
			}
		})
	}
}

// BenchmarkTrainM5P measures the cost of training alone (feature extraction
// plus model-tree induction) on the ablation training set — the cost that
// matters for the paper's goal of eventually re-training on-line.
func BenchmarkTrainM5P(b *testing.B) {
	train, _ := ablationData(b)
	ds, err := benchSchema(b, features.FullSchemaName).ExtractAll("bench", train)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainDataset(core.Config{}, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlinePrediction measures the per-checkpoint cost of the on-line
// path (feature update plus model-tree evaluation), which must stay far below
// the 15-second monitoring interval.
func BenchmarkOnlinePrediction(b *testing.B) {
	train, test := ablationData(b)
	m, err := core.Train(core.Config{}, train)
	if err != nil {
		b.Fatal(err)
	}
	sess := m.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := test.Checkpoints[i%test.Len()]
		if _, err := sess.Observe(cp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTestbedRun measures one complete simulated aging execution
// (100 EBs, N=30 leak, run to crash), the unit of cost behind every
// experiment above.
func BenchmarkTestbedRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.Run(testbed.RunConfig{
			Name:        "bench-run",
			Seed:        uint64(i + 1),
			EBs:         100,
			Phases:      testbed.ConstantLeakPhases(30),
			MaxDuration: 6 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Series.Len()), "checkpoints")
	}
}

// BenchmarkFeatureExtraction measures the Table 2 derived-feature pipeline on
// a full aging execution.
func BenchmarkFeatureExtraction(b *testing.B) {
	_, test := ablationData(b)
	schema := benchSchema(b, features.FullSchemaName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schema.Extract(test); err != nil {
			b.Fatal(err)
		}
	}
}
