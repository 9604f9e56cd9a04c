package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"

	"agingpred/internal/adapt"
	"agingpred/internal/features"
	"agingpred/internal/obs"
)

// adaptiveTestConfig builds a small fleet whose drift detector is pinned so
// sensitive (1 s baseline) that the first resolved crash trips it — the
// cheapest deterministic way to force the whole adaptive path (trigger,
// background retrain, epoch publish, epoch adoption at reset) inside a short
// simulated window.
func adaptiveTestConfig(t testing.TB, shards int) Config {
	t.Helper()
	return Config{
		Instances: 16,
		Shards:    shards,
		Duration:  2 * time.Hour,
		Seed:      5,
		Model:     testModel(t),
		Adaptive:  true,
		Adapt: adapt.Config{
			Detector:        adapt.DetectorConfig{BaselineSec: 1, Hysteresis: 1, MinBaselineSec: 1},
			MaxBufferedRuns: 4, // bound the background retrain's cost
		},
		RetrainLatency: 30 * time.Minute,
	}
}

// TestAdaptiveFleetSwapsEpochs drives a fleet across at least one model-epoch
// swap: drift trips on the first resolved crash, a background retrain
// publishes epoch 2 exactly RetrainLatency later, and recovering instances
// adopt it at their reset boundary. Run under -race this is the epoch-swap
// concurrency guard: shard workers keep observing lock-free while the
// background worker trains and the driver swaps the atomic epoch pointer.
func TestAdaptiveFleetSwapsEpochs(t *testing.T) {
	rep, err := Run(adaptiveTestConfig(t, 4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Adaptive {
		t.Fatalf("report not marked adaptive")
	}
	if rep.Retrains < 1 {
		t.Fatalf("no retrains over %d crashes with a 1 s drift baseline:\n%s", rep.CrashesSuffered, rep)
	}
	if rep.DriftTrips < rep.Retrains {
		t.Fatalf("%d retrains from %d drift trips", rep.Retrains, rep.DriftTrips)
	}
	if len(rep.Epochs) != rep.Retrains+1 {
		t.Fatalf("%d epoch rows for %d retrains", len(rep.Epochs), rep.Retrains)
	}
	var epochCkpts int64
	for i, e := range rep.Epochs {
		if e.Epoch != i+1 {
			t.Fatalf("epoch rows out of order: %+v", rep.Epochs)
		}
		if i == 0 && (e.PublishedAtSec != 0 || e.TrainedRuns != 0) {
			t.Fatalf("initial epoch claims a publication: %+v", e)
		}
		if i > 0 && (e.PublishedAtSec <= 0 || e.TrainedRuns == 0 || e.FreshRuns == 0) {
			t.Fatalf("published epoch missing provenance: %+v", e)
		}
		epochCkpts += e.Checkpoints
	}
	if epochCkpts != rep.Checkpoints {
		t.Fatalf("per-epoch checkpoints %d do not add up to the fleet total %d", epochCkpts, rep.Checkpoints)
	}
	// Later epochs must actually have served: the swap is not just recorded,
	// instances adopted the new model.
	if last := rep.Epochs[len(rep.Epochs)-1]; last.Checkpoints == 0 && rep.Retrains > 0 {
		// The very last epoch may publish near the end of the run; at least
		// one post-initial epoch must have served checkpoints.
		served := false
		for _, e := range rep.Epochs[1:] {
			if e.Checkpoints > 0 {
				served = true
			}
		}
		if !served {
			t.Fatalf("no post-swap epoch ever served a checkpoint:\n%s", rep)
		}
	}
	if got := rep.String(); !bytes.Contains([]byte(got), []byte("adaptive serving")) {
		t.Fatalf("String() lost the adaptive block:\n%s", got)
	}
}

// TestAdaptiveFleetDeterministicAcrossShardCounts extends the fleet's core
// determinism guarantee to adaptive serving over the batched prediction
// path: adaptive streams are staged through each shard's core.Stager (one
// core.Batch group per live epoch), the drift trajectory, the retrain
// schedule and the per-epoch stats are pure functions of the seed, and the
// JSON report stays byte-identical across shard counts even though the
// retrains themselves run on background goroutines.
func TestAdaptiveFleetDeterministicAcrossShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three adaptive fleets, each retraining in the background")
	}
	run := func(shards int) []byte {
		rep, err := Run(adaptiveTestConfig(t, shards))
		if err != nil {
			t.Fatalf("Run with %d shards: %v", shards, err)
		}
		if rep.Retrains == 0 {
			t.Fatalf("determinism test run swapped no epochs; it would vacuously pass")
		}
		rep.Shards = 0 // the echoed shard count is the only allowed difference
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return js
	}
	one := run(1)
	again := run(1)
	four := run(4)
	if !bytes.Equal(one, again) {
		t.Fatalf("two identical adaptive runs differ:\n%s\nvs\n%s", one, again)
	}
	if !bytes.Equal(one, four) {
		t.Fatalf("1-shard and 4-shard adaptive runs differ:\n%s\nvs\n%s", one, four)
	}
}

// TestAdaptiveSerialParallelEquivalence diffs adaptive serving across the
// parallel one-barrier engine and the serial-stepping reference path,
// report and journal both: epoch swaps land at reset boundaries inside the
// shard workers' tick, and the split must not move a single event. Under
// -race this doubles as the step-in-worker epoch-swap concurrency guard —
// shard workers step and predict while the background worker retrains and
// the driver swaps the epoch pointer.
func TestAdaptiveSerialParallelEquivalence(t *testing.T) {
	run := func(serial bool) (report, journal []byte) {
		var buf bytes.Buffer
		jnl := obs.NewJournal(&buf)
		cfg := adaptiveTestConfig(t, 3)
		cfg.Journal = jnl
		cfg.serialStep = serial
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run (serial=%v): %v", serial, err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatalf("journal close: %v", err)
		}
		if rep.Retrains == 0 {
			t.Fatalf("no epoch swaps; the equivalence check would be vacuous")
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return js, buf.Bytes()
	}
	parRep, parJnl := run(false)
	serRep, serJnl := run(true)
	if !bytes.Equal(parRep, serRep) {
		t.Errorf("adaptive parallel and serial reports differ:\n%s\nvs\n%s", parRep, serRep)
	}
	if !bytes.Equal(parJnl, serJnl) {
		t.Errorf("adaptive parallel and serial journals differ:\n%s\nvs\n%s", parJnl, serJnl)
	}
}

// TestAdaptiveConfigValidation pins the unsupported combination.
func TestAdaptiveConfigValidation(t *testing.T) {
	connSchema, err := features.LookupSchema(features.FullConnSchemaName)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Instances:    8,
		Duration:     time.Hour,
		Adaptive:     true,
		ClassSchemas: map[Class]*features.Schema{ClassConnLeak: connSchema},
	})
	if err == nil {
		t.Fatalf("Adaptive + ClassSchemas accepted")
	}
}

// tailRetrainConfig is adaptiveTestConfig over four simulated hours. Its
// last drift trigger falls at t=14280 s, within the 30-minute RetrainLatency
// of the run's end: an epoch trained from it could never go live.
func tailRetrainConfig(t testing.TB) Config {
	cfg := adaptiveTestConfig(t, 2)
	cfg.Duration = 4 * time.Hour
	return cfg
}

// adaptiveReportDigest is the FNV-64a digest of tailRetrainConfig's JSON
// report. It was recorded while a trigger in the last RetrainLatency still
// started a retrain, and is never regenerated: which retrains run must not
// move a byte of what the run reports.
const adaptiveReportDigest uint64 = 0xdb4b24432fcbd8f3

// TestAdaptiveReportDigest pins the report of an adaptive run whose last
// trigger cannot publish before the run ends.
func TestAdaptiveReportDigest(t *testing.T) {
	rep, err := Run(tailRetrainConfig(t))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	h := fnv.New64a()
	h.Write(js)
	if got := h.Sum64(); got != adaptiveReportDigest {
		t.Fatalf("report digest %#016x, want %#016x:\n%s", got, adaptiveReportDigest, js)
	}
}

// TestEveryRetrainStartPublishes holds the fleet to training only epochs
// the run can publish: each retrain_start in the journal is followed by the
// retrain_publish of the next epoch before any other retrain event, and the
// journal starts exactly as many retrains as the report counts.
func TestEveryRetrainStartPublishes(t *testing.T) {
	var buf bytes.Buffer
	jnl := obs.NewJournal(&buf)
	cfg := tailRetrainConfig(t)
	cfg.Journal = jnl
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal: %v", err)
	}
	starts := 0
	var open *obs.Event
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		switch e.Type {
		case obs.EventRetrainStart:
			if open != nil {
				t.Fatalf("retrain_start %+v while %+v never published", e, *open)
			}
			starts++
			open = &e
		case obs.EventRetrainPublish:
			if open == nil || e.Epoch != open.Epoch+1 {
				t.Fatalf("retrain_publish %+v does not follow a start on epoch %d", e, e.Epoch-1)
			}
			open = nil
		}
	}
	if open != nil {
		t.Fatalf("retrain_start %+v never published", *open)
	}
	if starts == 0 || starts != rep.Retrains {
		t.Fatalf("journal starts %d retrains, report counts %d", starts, rep.Retrains)
	}
}

// goroutinesIn counts the goroutines whose stack mentions fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, fn) {
			n++
		}
	}
	return n
}

// awaitGoroutines waits up to five seconds for the goroutine count to fall
// back to base (exited goroutines leave the count asynchronously) and
// returns the last count seen.
func awaitGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// trainFrame marks a goroutine that is training a model.
const trainFrame = "agingpred/internal/core.Train("

// retrainCancelCtx reports itself cancelled from the moment a background
// retrain is seen training, so the run it drives is cancelled mid-retrain.
type retrainCancelCtx struct{ context.Context }

func (retrainCancelCtx) Err() error {
	if goroutinesIn(trainFrame) > 0 {
		return context.Canceled
	}
	return nil
}

// TestRunJoinsRetrainOnCancel cancels an adaptive run while a retrain is in
// flight: Run must not return before the training goroutine has finished,
// and leaves no goroutine behind.
func TestRunJoinsRetrainOnCancel(t *testing.T) {
	cfg := tailRetrainConfig(t)
	if n := goroutinesIn(trainFrame); n != 0 {
		t.Fatalf("%d models already training before Run", n)
	}
	base := runtime.NumGoroutine()
	cfg.Ctx = retrainCancelCtx{context.Background()}
	_, err := Run(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run cancelled mid-retrain returned %v", err)
	}
	if n := goroutinesIn(trainFrame); n != 0 {
		t.Fatalf("%d retrains still training after Run returned", n)
	}
	if n := awaitGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Run returned, %d before", n, base)
	}
}
