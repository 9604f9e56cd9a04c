package fleet

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/features"
	"agingpred/internal/monitor"
	"agingpred/internal/obs"
)

// sharedModel trains the fleet model once per test binary; training is the
// expensive part of these tests and every fleet run can reuse it.
var (
	sharedOnce  sync.Once
	sharedModel *core.Model
	sharedErr   error
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	sharedOnce.Do(func() {
		sharedModel, sharedErr = TrainModel(1)
	})
	if sharedErr != nil {
		t.Fatalf("TrainModel: %v", sharedErr)
	}
	return sharedModel
}

func TestSpecsDeterministicAndHeterogeneous(t *testing.T) {
	a := Specs(7, 300)
	b := Specs(7, 300)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs across draws: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Growing the fleet keeps existing instances' specs identical.
	bigger := Specs(7, 400)
	for i := range a {
		if bigger[i] != a[i] {
			t.Fatalf("spec %d changed when the fleet grew: %+v vs %+v", i, bigger[i], a[i])
		}
	}
	seen := map[Class]int{}
	for i, s := range a {
		if s.ID != i {
			t.Fatalf("spec %d has ID %d", i, s.ID)
		}
		if s.EBs < 40 || s.EBs > 180 {
			t.Fatalf("spec %d EBs %d out of range", i, s.EBs)
		}
		if err := s.Profile.Validate(); err != nil {
			t.Fatalf("spec %d profile invalid: %v", i, err)
		}
		if (s.Class == ClassHealthy) == s.Profile.Aging() {
			t.Fatalf("spec %d class %s does not match profile %s", i, s.Class, s.Profile)
		}
		seen[s.Class]++
	}
	for c := Class(0); c < numClasses; c++ {
		if seen[c] == 0 {
			t.Errorf("class %s absent from a 300-instance fleet", c)
		}
	}
}

func TestTrainingSeriesShape(t *testing.T) {
	series, err := TrainingSeries(3)
	if err != nil {
		t.Fatalf("TrainingSeries: %v", err)
	}
	if len(series) != len(trainingSpecs()) {
		t.Fatalf("%d series for %d specs", len(series), len(trainingSpecs()))
	}
	crashed := 0
	for _, s := range series {
		if s.Len() == 0 {
			t.Fatalf("series %q is empty", s.Name)
		}
		if s.Crashed {
			crashed++
			last := s.Checkpoints[s.Len()-1]
			if last.TTFSec > s.CrashTimeSec {
				t.Fatalf("series %q last label %v exceeds crash time %v", s.Name, last.TTFSec, s.CrashTimeSec)
			}
		} else {
			if !strings.Contains(s.Name, "healthy") {
				t.Fatalf("aging series %q did not crash", s.Name)
			}
			for _, cp := range s.Checkpoints {
				if cp.TTFSec != monitor.InfiniteTTFSec {
					t.Fatalf("healthy series labelled %v, want infinite", cp.TTFSec)
				}
			}
		}
	}
	if crashed != len(series)-1 {
		t.Fatalf("%d of %d training series crashed, want all but the healthy one", crashed, len(series))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Instances: 0, Duration: time.Hour}); err == nil {
		t.Fatalf("zero instances accepted")
	}
	if _, err := Run(Config{Instances: 10}); err == nil {
		t.Fatalf("zero duration accepted")
	}
	// core.Train returns only trained, immutable models, but a zero
	// &core.Model{} is still constructible; it must be rejected up front,
	// not panic mid-run.
	if _, err := Run(Config{Instances: 10, Duration: time.Hour, Model: &core.Model{}}); err == nil {
		t.Fatalf("zero core.Model accepted")
	}
	if _, err := Run(Config{Instances: 10, Duration: time.Hour,
		ClassSchemas: map[Class]*features.Schema{Class(99): nil}}); err == nil {
		t.Fatalf("out-of-range ClassSchemas key accepted")
	}
}

// TestRunDeterministicAcrossShardCounts is the core guarantee of the fleet
// engine: shard count is a throughput knob, not a behaviour knob. Every
// prediction now flows through the shard workers' batch path (staged feature
// rows, PredictBatch sweeps), and the shard count decides how instances are
// grouped into batches — so this test is also the pin that batch grouping
// never changes results. The same seed must yield a byte-identical JSON
// summary at 1 shard, 3 shards (ragged groups), 4 shards, and across
// repetitions.
func TestRunDeterministicAcrossShardCounts(t *testing.T) {
	model := testModel(t)
	run := func(shards int) []byte {
		rep, err := Run(Config{
			Instances: 24,
			Shards:    shards,
			Duration:  90 * time.Minute,
			Seed:      5,
			Model:     model,
		})
		if err != nil {
			t.Fatalf("Run with %d shards: %v", shards, err)
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
	three := run(3)
	four := run(4)
	if !bytes.Equal(one, again) {
		t.Fatalf("two identical runs differ:\n%s\nvs\n%s", one, again)
	}
	if !bytes.Equal(one, three) {
		t.Fatalf("1-shard and 3-shard runs differ:\n%s\nvs\n%s", one, three)
	}
	if !bytes.Equal(one, four) {
		t.Fatalf("1-shard and 4-shard runs differ:\n%s\nvs\n%s", one, four)
	}
}

// TestJournalAndReportDeterministicAcrossEngines is the one-barrier engine's
// full determinism pin: the JSON report AND the event journal must be
// byte-identical across shard counts 1, 3 (ragged groups) and 4, and across
// the parallel engine vs the retained serial-stepping reference path — the
// original driver-stepped formulation the workers' step+merge split claims to
// reproduce bit for bit.
func TestJournalAndReportDeterministicAcrossEngines(t *testing.T) {
	model := testModel(t)
	run := func(shards int, serial bool) (report, journal []byte) {
		var buf bytes.Buffer
		jnl := obs.NewJournal(&buf)
		rep, err := Run(Config{
			Instances:  24,
			Shards:     shards,
			Duration:   90 * time.Minute,
			Seed:       5,
			Model:      model,
			Journal:    jnl,
			serialStep: serial,
		})
		if err != nil {
			t.Fatalf("Run (shards=%d serial=%v): %v", shards, serial, err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatalf("journal close: %v", err)
		}
		if jnl.Len() == 0 {
			t.Fatalf("empty journal; the determinism check would be vacuous")
		}
		rep.Shards = 0 // the echoed shard count is the only allowed difference
		js, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		return js, buf.Bytes()
	}
	refRep, refJnl := run(1, false)
	for _, c := range []struct {
		name   string
		shards int
		serial bool
	}{
		{"shards-3", 3, false},
		{"shards-4", 4, false},
		{"serial-1", 1, true},
		{"serial-3", 3, true},
	} {
		rep, jnl := run(c.shards, c.serial)
		if !bytes.Equal(refRep, rep) {
			t.Errorf("%s report differs from the 1-shard parallel reference:\n%s\nvs\n%s", c.name, refRep, rep)
		}
		if !bytes.Equal(refJnl, jnl) {
			t.Errorf("%s journal differs from the 1-shard parallel reference", c.name)
		}
	}
}

// TestPerClassSchema exercises the per-class schema choice: the conn-leak
// class runs on the "full+conn" schema (connection-speed derivatives) while
// the rest of the fleet stays on the paper's full Table 2 set. The run must
// stay deterministic and the report must say which schema each class ran on.
func TestPerClassSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an extra model and runs two fleets")
	}
	connSchema, err := features.LookupSchema(features.FullConnSchemaName)
	if err != nil {
		t.Fatalf("LookupSchema: %v", err)
	}
	cfg := Config{
		Instances:    48,
		Shards:       2,
		Duration:     3 * time.Hour,
		Seed:         2,
		ClassSchemas: map[Class]*features.Schema{ClassConnLeak: connSchema},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run (repeat): %v", err)
	}
	js1, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	js2, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Fatalf("per-class-schema run is not deterministic:\n%s\nvs\n%s", js1, js2)
	}
	classOf := func(r *Report, name string) ClassReport {
		for _, c := range r.Classes {
			if c.Class == name {
				return c
			}
		}
		t.Fatalf("class %s missing from report", name)
		return ClassReport{}
	}
	if got := classOf(rep, "conn-leak").Schema; got != features.FullConnSchemaName {
		t.Fatalf("conn-leak class reports schema %q, want %q", got, features.FullConnSchemaName)
	}
	if got := classOf(rep, "mem-leak").Schema; got != features.FullSchemaName {
		t.Fatalf("mem-leak class reports schema %q, want %q", got, features.FullSchemaName)
	}
}

// TestConnSchemaImprovesPredictions is the schema A/B at fixed behaviour:
// the same conn-leak checkpoint streams (no controller, no rejuvenations, so
// the trajectories are identical for both models) observed by the "full" and
// the "full+conn" predictors, scored against the frozen-rate reference TTF.
// Comparing fleet-run aggregate MAEs would confound the schemas with the
// control loop they drive — better predictions rejuvenate earlier and more
// often, which changes the trajectory mix — so the shadow comparison is the
// honest measurement of what the connection-speed derivatives buy.
func TestConnSchemaImprovesPredictions(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	const seed = 1
	connSchema, err := features.LookupSchema(features.FullConnSchemaName)
	if err != nil {
		t.Fatalf("LookupSchema: %v", err)
	}
	fullModel, err := TrainModelSchema(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	connModel, err := TrainModelSchema(seed, connSchema)
	if err != nil {
		t.Fatal(err)
	}
	specs := Specs(seed, 96)
	var fullErr, connErr float64
	var n int
	for _, spec := range specs {
		if spec.Class != ClassConnLeak {
			continue
		}
		in := newInstance(seed, spec)
		fc, cc := fullModel.NewSession(), connModel.NewSession()
		dt := monitor.DefaultInterval.Seconds()
		for tick := 1; tick <= 4*240; tick++ { // 4 simulated hours
			ts := float64(tick) * dt
			var cp monitor.Checkpoint
			if in.step(ts, dt, &cp) {
				break
			}
			pf, err := fc.Observe(cp)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := cc.Observe(cp)
			if err != nil {
				t.Fatal(err)
			}
			ref := in.refTTFSec
			fullErr += abs(pf.TTFSec - ref)
			connErr += abs(pc.TTFSec - ref)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no conn-leak checkpoints scored")
	}
	fullMAE, connMAE := fullErr/float64(n), connErr/float64(n)
	t.Logf("conn-leak shadow MAE over %d checkpoints: full %.0f s, full+conn %.0f s", n, fullMAE, connMAE)
	if connMAE >= fullMAE {
		t.Fatalf("full+conn schema did not improve the conn-leak prediction MAE: %.0f s vs %.0f s (full)",
			connMAE, fullMAE)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestRunClosesTheLoop runs a fleet long enough for the aging classes to hit
// their thresholds and checks the monitor → predict → rejuvenate loop
// actually fires: rejuvenations happen, genuinely-doomed instances dominate
// them, healthy instances never crash, and the budget cap holds.
func TestRunClosesTheLoop(t *testing.T) {
	model := testModel(t)
	rep, err := Run(Config{
		Instances: 48,
		Shards:    2,
		Duration:  3 * time.Hour,
		Seed:      2,
		Model:     model,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Checkpoints == 0 || rep.ServedRequests <= 0 {
		t.Fatalf("fleet served nothing: %+v", rep)
	}
	if rep.Rejuvenations == 0 {
		t.Fatalf("no rejuvenations over 3 h with every aging class present:\n%s", rep)
	}
	if rep.CrashesAvoided == 0 {
		t.Fatalf("no crashes avoided:\n%s", rep)
	}
	if rep.MaxConcurrentRejuvenations > rep.RejuvenationBudget {
		t.Fatalf("budget cap violated: peak %d > budget %d", rep.MaxConcurrentRejuvenations, rep.RejuvenationBudget)
	}
	if rep.Availability <= 0.5 || rep.Availability > 1 {
		t.Fatalf("implausible availability %v", rep.Availability)
	}
	classes := map[string]ClassReport{}
	for _, c := range rep.Classes {
		classes[c.Class] = c
	}
	healthy, ok := classes["healthy"]
	if !ok || healthy.Instances == 0 {
		t.Fatalf("no healthy class in report: %+v", rep.Classes)
	}
	if healthy.Crashes != 0 {
		t.Fatalf("healthy instances crashed %d times", healthy.Crashes)
	}
	// Prediction error must be far from degenerate on the classes whose
	// resources have sliding-window speed features in Table 2 (memory and
	// threads). Connection aging has no speed feature in the paper's
	// variable set, so its MAE is structurally worse — it only has to show
	// up in the report.
	for _, name := range []string{"mem-leak", "thread-leak"} {
		c, ok := classes[name]
		if !ok || c.Checkpoints == 0 {
			t.Fatalf("class %s missing from report", name)
		}
		if c.MAESec <= 0 || c.MAESec > monitor.InfiniteTTFSec/2 {
			t.Fatalf("class %s MAE %v out of plausible range", name, c.MAESec)
		}
	}
	if c, ok := classes["conn-leak"]; !ok || c.Checkpoints == 0 {
		t.Fatalf("conn-leak class missing from report")
	}
	if !strings.Contains(rep.String(), "rejuvenations") {
		t.Fatalf("String() lost the headline:\n%s", rep)
	}
}

// TestRunBudgetArbitration drives every instance into alerting (the
// threshold admits even "infinite" predictions) with a budget of one, so the
// controller must defer alerts and never exceed one concurrent restart.
func TestRunBudgetArbitration(t *testing.T) {
	model := testModel(t)
	rep, err := Run(Config{
		Instances:          16,
		Shards:             2,
		Duration:           30 * time.Minute,
		Seed:               3,
		Model:              model,
		TTFThreshold:       4 * time.Hour, // above the infinite horizon: everything alerts
		RejuvenationBudget: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.MaxConcurrentRejuvenations != 1 {
		t.Fatalf("peak concurrency %d with budget 1", rep.MaxConcurrentRejuvenations)
	}
	if rep.BudgetDenied == 0 {
		t.Fatalf("no alerts deferred although all 16 instances alert against budget 1:\n%s", rep)
	}
}

func TestRunHonoursCancelledContext(t *testing.T) {
	model := testModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(Config{
		Instances: 500,
		Shards:    2,
		Duration:  24 * time.Hour,
		Seed:      1,
		Model:     model,
		Ctx:       ctx,
	})
	if err == nil {
		t.Fatalf("cancelled run succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v to return", elapsed)
	}
}
