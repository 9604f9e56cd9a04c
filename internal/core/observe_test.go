package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"agingpred/internal/features"
	"agingpred/internal/monitor"
)

// leakSeries builds a deterministic run-to-crash series with a linear memory
// and thread leak plus small deterministic oscillations — cheap enough to
// train on in a unit test, structured enough for M5P to find splits.
func leakSeries(name string, n int, memPerCP, thrPerCP float64) *monitor.Series {
	s := &monitor.Series{Name: name, IntervalSec: 15, Workload: 100, Crashed: true}
	crash := float64(n) * 15
	s.CrashTimeSec = crash
	for i := 1; i <= n; i++ {
		t := float64(i) * 15
		wob := float64(i%5) - 2
		old := 200 + memPerCP*float64(i)
		threads := 250 + thrPerCP*float64(i) + wob
		tomcat := 500 + memPerCP*float64(i) + 0.5*threads
		s.Checkpoints = append(s.Checkpoints, monitor.Checkpoint{
			TimeSec:         t,
			Throughput:      10 + 0.2*wob,
			Workload:        100,
			ResponseTimeSec: 0.05 + 0.0005*float64(i),
			SystemLoad:      2,
			DiskUsedMB:      12000 + float64(i),
			SwapFreeMB:      2048,
			NumProcesses:    117,
			SystemMemUsedMB: 450 + tomcat,
			TomcatMemUsedMB: tomcat,
			NumThreads:      threads,
			NumHTTPConns:    10,
			NumMySQLConns:   8 + 0.05*float64(i),
			YoungMaxMB:      128,
			OldMaxMB:        832,
			YoungUsedMB:     40 + 4*wob,
			OldUsedMB:       old,
			YoungPct:        (40 + 4*wob) / 128 * 100,
			OldPct:          old / 832 * 100,
			TTFSec:          crash - t,
		})
	}
	return s
}

func trainedOn(t testing.TB, cfg Config) *Model {
	t.Helper()
	m, err := Train(cfg, []*monitor.Series{
		leakSeries("train-a", 300, 2.0, 0.3),
		leakSeries("train-b", 400, 1.5, 0.2),
		leakSeries("train-c", 250, 2.5, 0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// schemaNamed returns the registered feature schema with the given name.
func schemaNamed(t testing.TB, name string) *features.Schema {
	t.Helper()
	s, err := features.LookupSchema(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestObserveZeroAllocs pins the acceptance criterion of the schema
// refactor, now phrased against the Session hot path: steady-state
// Session.Observe performs no allocations per checkpoint for every model
// family.
func TestObserveZeroAllocs(t *testing.T) {
	for _, kind := range []ModelKind{ModelM5P, ModelLinearRegression, ModelRegressionTree} {
		t.Run(string(kind), func(t *testing.T) {
			sess := trainedOn(t, Config{Model: kind}).NewSession()
			test := leakSeries("test", 200, 1.8, 0.25)
			for _, cp := range test.Checkpoints {
				if _, err := sess.Observe(cp); err != nil {
					t.Fatal(err)
				}
			}
			cp := test.Checkpoints[len(test.Checkpoints)-1]
			allocs := testing.AllocsPerRun(100, func() {
				cp.TimeSec += 15
				if _, err := sess.Observe(cp); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Session.Observe allocates %.1f objects per checkpoint, want 0", allocs)
			}
		})
	}
}

// TestBoundModelMatchesNameResolvingPath verifies the compiled hot path is
// bit-identical to the legacy name-resolving Predict for every model family
// — the property the golden experiment metrics rely on.
func TestBoundModelMatchesNameResolvingPath(t *testing.T) {
	for _, kind := range []ModelKind{ModelM5P, ModelLinearRegression, ModelRegressionTree} {
		t.Run(string(kind), func(t *testing.T) {
			m := trainedOn(t, Config{Model: kind})
			if m.bound == nil {
				t.Fatalf("model did not bind to its own schema")
			}
			test := leakSeries("test", 150, 1.2, 0.4)
			x := m.schema.Stream()
			for _, cp := range test.Checkpoints {
				row := x.Step(cp)
				fast := m.bound.Predict(row)
				slow, err := m.reg.Predict(m.attrs, row)
				if err != nil {
					t.Fatal(err)
				}
				if fast != slow {
					t.Fatalf("bound prediction %v != name-resolved %v at t=%v (difference %g)",
						fast, slow, cp.TimeSec, math.Abs(fast-slow))
				}
			}
		})
	}
}

// TestBatchGrowthMatchesScalar pins batch ≡ scalar across RowBatch growth: a
// batch sized for one row stages more sessions every tick — session i joins
// at tick i — so the row buffer grows, and re-points the rows staged before
// it, several times mid-tick. Every prediction must equal the same session's
// scalar Observe bit for bit, for every model family.
func TestBatchGrowthMatchesScalar(t *testing.T) {
	for _, kind := range []ModelKind{ModelM5P, ModelLinearRegression, ModelRegressionTree} {
		t.Run(string(kind), func(t *testing.T) {
			m := trainedOn(t, Config{Model: kind})
			const sessions = 40
			cps := leakSeries("growth", sessions+60, 1.8, 0.25).Checkpoints
			batched, scalar := make([]*Session, sessions), make([]*Session, sessions)
			for i := range batched {
				batched[i], scalar[i] = m.NewSession(), m.NewSession()
			}
			b := m.NewBatch(1)
			for tick := range cps {
				b.Reset()
				live := min(tick+1, sessions)
				for i := 0; i < live; i++ {
					if err := b.Stage(batched[i], &cps[tick-i]); err != nil {
						t.Fatal(err)
					}
				}
				preds, err := b.Predict()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < live; i++ {
					want, err := scalar[i].Observe(cps[tick-i])
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(preds[i].TTFSec) != math.Float64bits(want.TTFSec) {
						t.Fatalf("tick %d session %d: batch predicts %v s, scalar %v s",
							tick, i, preds[i].TTFSec, want.TTFSec)
					}
				}
			}
		})
	}
}

// TestConfigSchemaSelectsRegistrySchemas checks Config.Schema plumbs a
// registered schema (here full+conn) end to end: attribute list, training
// and on-line observation.
func TestConfigSchemaSelectsRegistrySchemas(t *testing.T) {
	schema, err := features.LookupSchema(features.FullConnSchemaName)
	if err != nil {
		t.Fatal(err)
	}
	m := trainedOn(t, Config{Schema: schema})
	if got := m.Schema().Name(); got != features.FullConnSchemaName {
		t.Fatalf("model schema = %q", got)
	}
	if len(m.Attrs()) != schema.NumAttrs() {
		t.Fatalf("model has %d attrs, schema %d", len(m.Attrs()), schema.NumAttrs())
	}
	test := leakSeries("test", 100, 1.5, 0.3)
	sess := m.NewSession()
	pred, err := sess.Observe(test.Checkpoints[0])
	if err != nil {
		t.Fatal(err)
	}
	if pred.TTFSec < 0 {
		t.Fatalf("negative TTF %v", pred.TTFSec)
	}
	// A second session shares the schema and the bound model.
	sess2 := m.NewSession()
	if sess2.Model() != m {
		t.Fatalf("session lost its model")
	}
	if _, err := sess2.Observe(test.Checkpoints[0]); err != nil {
		t.Fatal(err)
	}
}

// TestCustomSchemaKeepsItsWindow guards the Config contract: with
// WindowLength unset, a caller-supplied schema keeps its own default SWA
// window instead of being silently re-windowed to the package default.
func TestCustomSchemaKeepsItsWindow(t *testing.T) {
	schema := features.NewSchemaBuilder("custom-window", 40).
		Resource(features.ResourceDescriptor{
			Key: "old", LevelName: "old_used", Unit: "MB", Direction: features.Growing,
			Level: func(cp *monitor.Checkpoint) float64 { return cp.OldUsedMB },
		}).
		Raw("old_used_mb", "MB", func(cp *monitor.Checkpoint) float64 { return cp.OldUsedMB }).
		SpeedDerivatives("old").
		MustBuild()
	m := trainedOn(t, Config{Schema: schema})
	if got := m.Schema().WindowLength(); got != 40 {
		t.Fatalf("schema window silently changed to %d, want 40", got)
	}
	if got := m.Config().WindowLength; got != 40 {
		t.Fatalf("Config().WindowLength = %d, want the effective 40", got)
	}
	// An explicit WindowLength still re-parameterises the schema.
	m2 := trainedOn(t, Config{Schema: schema, WindowLength: 6})
	if got := m2.Schema().WindowLength(); got != 6 {
		t.Fatalf("explicit WindowLength ignored: schema window %d, want 6", got)
	}
}

// TestConcurrentPredictRowIsSafe pins the off-hot-path half of the "Model is
// safe for concurrent use" contract. The name-resolving Predict lazily
// caches attribute resolutions inside the shared regressor (linreg keys the
// cache by row-schema signature), so concurrent PredictRow calls on a wider
// row layout used to race on that cache; Model now serialises them. Under
// `go test -race` this test fails without the lock.
func TestConcurrentPredictRowIsSafe(t *testing.T) {
	m := trainedOn(t, Config{Model: ModelLinearRegression, Schema: schemaNamed(t, features.NoHeapSchemaName)})
	// Rows in the full Table 2 layout: wider than and reordered relative to
	// the model's own no-heap schema, so every resolution goes through the
	// regressor's lazy name-resolving cache.
	test := leakSeries("wide", 120, 1.8, 0.25)
	wideDS, err := schemaNamed(t, features.FullSchemaName).Extract(test)
	if err != nil {
		t.Fatal(err)
	}
	attrs := wideDS.Attrs()
	want := make([]float64, wideDS.Len())
	for i := range want {
		pred, err := m.PredictRow(0, attrs, wideDS.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pred.TTFSec
	}
	const workers = 6
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < wideDS.Len(); i++ {
				pred, err := m.PredictRow(0, attrs, wideDS.Row(i))
				if err != nil {
					errs[g] = err
					return
				}
				if pred.TTFSec != want[i] {
					errs[g] = fmt.Errorf("worker %d row %d: %v != %v", g, i, pred.TTFSec, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnboundModelSessionErrors covers the degenerate serving path: a model
// trained on a dataset wider than its schema cannot bind, and its sessions'
// Observe reports the attribute mismatch per call — an error, never a panic
// and never a silent wrong prediction.
func TestUnboundModelSessionErrors(t *testing.T) {
	train := []*monitor.Series{
		leakSeries("train-a", 300, 2.0, 0.3),
		leakSeries("train-b", 400, 1.5, 0.2),
	}
	fullDS, err := schemaNamed(t, features.FullSchemaName).ExtractAll("wide", train)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainDataset(Config{Schema: schemaNamed(t, features.NoHeapSchemaName)}, fullDS)
	if err != nil {
		t.Fatal(err)
	}
	if m.bound != nil {
		t.Fatalf("model bound unexpectedly; the test needs the fallback path")
	}
	sess := m.NewSession()
	if _, err := sess.Observe(leakSeries("test", 1, 1.8, 0.25).Checkpoints[0]); err == nil {
		t.Fatalf("unbound model's session observed successfully; want the schema-mismatch error")
	}
}

// BenchmarkObserve measures the per-checkpoint hot path end to end — now
// Session.Observe: compiled feature row + schema-bound model evaluation —
// reporting ns/op and allocs/op. Before the schema refactor this path built
// a 49-entry map[string]float64, filtered it through freshly-allocated name
// slices and re-resolved every model attribute by name on each call (~20
// allocations per checkpoint); now it is allocation-free for every model
// family, all three evaluated by the one flattened tree.
func BenchmarkObserve(b *testing.B) {
	for _, kind := range []ModelKind{ModelM5P, ModelLinearRegression, ModelRegressionTree} {
		b.Run(string(kind), func(b *testing.B) {
			sess := trainedOn(b, Config{Model: kind}).NewSession()
			test := leakSeries("bench", 256, 1.8, 0.25)
			for _, cp := range test.Checkpoints {
				if _, err := sess.Observe(cp); err != nil {
					b.Fatal(err)
				}
			}
			cp := test.Checkpoints[len(test.Checkpoints)-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp.TimeSec += 15
				if _, err := sess.Observe(cp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSessionResetIsFresh pins reset ≡ fresh at the session: after any prefix
// and a Reset, every prediction is bit-for-bit a fresh session's, across the
// feature windows' 4096-push sum recomputations.
func TestSessionResetIsFresh(t *testing.T) {
	m := trainedOn(t, Config{})
	r := rand.New(rand.NewPCG(11, 4096))
	// The stream replays one training run over and over on a running clock,
	// with noise down to the last mantissa bit: the predictions stay off the
	// clamps and the window sums' rounding stays live.
	run := leakSeries("reset", 300, 2.0, 0.3).Checkpoints
	stream := func(n int) []monitor.Checkpoint {
		cps := make([]monitor.Checkpoint, n)
		for c := range cps {
			cps[c] = run[c%len(run)]
			v := cps[c].Vec()
			v[0] = 15 * float64(c+1)
			for i := 1; i < monitor.NumFields; i++ {
				v[i] += 1e-3 * (1 + math.Abs(v[i])) * r.NormFloat64()
			}
		}
		return cps
	}
	for _, prefix := range []int{1, 4095, 4097, 6000} {
		reused := m.NewSession()
		for _, cp := range stream(prefix) {
			if _, err := reused.Observe(cp); err != nil {
				t.Fatal(err)
			}
		}
		reused.Reset()
		fresh := m.NewSession()
		for i, cp := range stream(8300) {
			got, err := reused.Observe(cp)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := fresh.Observe(cp)
			if math.Float64bits(got.TTFSec) != math.Float64bits(want.TTFSec) {
				t.Fatalf("reset after %d checkpoints: checkpoint %d predicts %v s, fresh session %v s",
					prefix, i, got.TTFSec, want.TTFSec)
			}
		}
	}
}
