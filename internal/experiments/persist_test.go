package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"agingpred/internal/core"
	"agingpred/internal/features"
	"agingpred/internal/testbed"
)

// TestModelRoundTripOnGolden41Stream is the persistence acceptance criterion
// at experiment scale: train the experiment 4.1 M5P model at seed 1, encode
// → decode it, and replay the golden 150 EB test stream (the same execution
// TestGoldenMetricsSeed1 pins) through both models. Every TTF prediction
// must match bit for bit — a saved model serves exactly like the process
// that trained it.
func TestModelRoundTripOnGolden41Stream(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment-scale training runs")
	}
	opts := Options{Seed: 1}.withDefaults()
	trainSeries, err := constantLeakTrainingRuns(opts, "exp41", 1000)
	if err != nil {
		t.Fatalf("training runs: %v", err)
	}
	model, err := trainScenarioModel(opts, core.ModelM5P, features.NoHeapSchemaName, trainSeries)
	if err != nil {
		t.Fatalf("training: %v", err)
	}

	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	loaded, err := core.DecodeModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeModel: %v", err)
	}

	// The golden 4.1 test stream: 150 EBs, constant N=30 leak, seed 1.
	res, err := runUntilCrash(testbed.RunConfig{
		Name:        "exp41-test-150EB",
		Seed:        opts.Seed + uint64(2000+150),
		EBs:         150,
		Phases:      testbed.ConstantLeakPhases(30),
		MaxDuration: opts.MaxRunDuration,
	})
	if err != nil {
		t.Fatalf("golden test run: %v", err)
	}
	want, err := model.PredictSeries(res.Series)
	if err != nil {
		t.Fatalf("in-memory predictions: %v", err)
	}
	got, err := loaded.PredictSeries(res.Series)
	if err != nil {
		t.Fatalf("decoded-model predictions: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded model produced %d predictions, in-memory %d", len(got), len(want))
	}
	for i := range want {
		if got[i].PredictedTTF != want[i].PredictedTTF {
			t.Fatalf("checkpoint %d (t=%.0f s): decoded model predicted %v, in-memory %v",
				i, want[i].TimeSec, got[i].PredictedTTF, want[i].PredictedTTF)
		}
	}
	if model.Report() != loaded.Report() {
		t.Fatalf("train report changed across the round trip: %+v vs %+v", loaded.Report(), model.Report())
	}
	t.Logf("round trip bit-identical over %d checkpoints: %s", len(want),
		fmt.Sprintf("%s (artifact: %d bytes)", model.Report(), buf.Len()))
}
