// Package difftest is the differential test harness of the batched,
// flattened prediction engine: it proves — bit for bit, via math.Float64bits
// — that the three prediction paths of every model family agree on arbitrary
// inputs:
//
//	pointer walk   the training-tree Predict (name-resolved, recursive);
//	               the reference semantics
//	flattened      flattree.Tree.Predict over the one array-backed layout
//	               every family binds to
//	batch          PredictBatch over [][]float64 rows, at several batch sizes
//
// plus an end-to-end check that a projected serving session fed through
// core.Batch equals full feature extraction plus Model.PredictRow on a real
// simulated aging stream. Exact equality is the contract the fleet layer's
// byte-identical-report invariant rests on, so these tests use == on bits,
// never tolerances.
package difftest

import (
	"math"
	"testing"

	"agingpred/internal/core"
	"agingpred/internal/dataset"
	"agingpred/internal/fleet"
	"agingpred/internal/linreg"
	"agingpred/internal/m5p"
	"agingpred/internal/monitor"
	"agingpred/internal/regtree"
	"agingpred/internal/rng"
)

// batchSizes are the chunk widths the batch paths are exercised at: the
// degenerate single row, a ragged odd size, a cache-line-scale size, and a
// whole shard tick of the fleet benchmarks.
var batchSizes = []int{1, 7, 64, 256}

// randDataset builds a dataset with enough structure that tree fitters
// actually split: a piecewise response with interactions plus noise.
func randDataset(r *rng.Source, attrs []string, rows int) *dataset.Dataset {
	ds, err := dataset.New("difftest", attrs, "target")
	if err != nil {
		panic(err)
	}
	row := make([]float64, len(attrs))
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = r.Float64Between(-50, 50)
		}
		target := 3*row[0] - 0.5*row[1]
		if row[0] > 0 {
			target += 10 * row[2]
		} else {
			target -= row[1] * 0.25
		}
		if len(row) > 3 && row[3] > 10 {
			target += 100
		}
		target += r.Normal(0, 2)
		if err := ds.Append(row, target); err != nil {
			panic(err)
		}
	}
	return ds
}

func attrNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	return names
}

// padLayout embeds the training attributes in a wider row layout with decoy
// columns on both sides, so binding must remap every column index.
func padLayout(attrs []string) (padded []string, place func(src, dst []float64) []float64) {
	padded = append([]string{"pad_lo"}, attrs...)
	padded = append(padded, "pad_hi")
	place = func(src, dst []float64) []float64 {
		if dst == nil {
			dst = make([]float64, len(src)+2)
		}
		dst[0] = 1e9 // decoys are poison: a misbound column shows up instantly
		copy(dst[1:], src)
		dst[len(dst)-1] = -1e9
		return dst
	}
	return padded, place
}

// randRows draws evaluation rows, including occasional values far outside
// the training range so extrapolating leaf models are covered too.
func randRows(r *rng.Source, width, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, width)
		for j := range row {
			row[j] = r.Float64Between(-50, 50)
			if r.Intn(10) == 0 {
				row[j] *= 1e3
			}
		}
		rows[i] = row
	}
	return rows
}

// checkBits fails the test when two predictions differ in even one bit.
func checkBits(t *testing.T, path string, i int, want, got float64) {
	t.Helper()
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("%s: row %d: %v (bits %#x) != reference %v (bits %#x)",
			path, i, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// scalarVsBatch checks PredictBatch against per-row scalar predictions at
// every batch size; predict is the flattened scalar path, batch the batched
// one.
func scalarVsBatch(t *testing.T, rows [][]float64, predict func([]float64) float64, batch func([][]float64, []float64)) {
	t.Helper()
	want := make([]float64, len(rows))
	for i, row := range rows {
		want[i] = predict(row)
	}
	for _, size := range batchSizes {
		out := make([]float64, size)
		for lo := 0; lo < len(rows); lo += size {
			hi := lo + size
			if hi > len(rows) {
				hi = len(rows)
			}
			chunk := rows[lo:hi]
			batch(chunk, out[:len(chunk)])
			for k := range chunk {
				checkBits(t, "batch", lo+k, want[lo+k], out[k])
			}
		}
	}
}

func TestM5PFlattenedAndBatchMatchPointerWalk(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.NewNamed(seed, "difftest/m5p")
		attrs := attrNames(4 + r.Intn(4))
		ds := randDataset(r, attrs, 200+r.Intn(200))
		opts := m5p.Options{MinInstances: 5 + r.Intn(10)}
		if seed%2 == 0 {
			opts.NoSmoothing = true
		}
		if seed%3 == 0 {
			opts.Unpruned = true
		}
		tree, err := m5p.Fit(ds, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		padded, place := padLayout(attrs)
		for _, layout := range []struct {
			name  string
			attrs []string
			place func(src, dst []float64) []float64
		}{
			{"identity", attrs, func(src, dst []float64) []float64 { return src }},
			{"padded", padded, place},
		} {
			bound, err := tree.Bind(layout.attrs)
			if err != nil {
				t.Fatalf("seed %d: bind %s: %v", seed, layout.name, err)
			}
			rows := randRows(r, len(attrs), 512)
			boundRows := make([][]float64, len(rows))
			for i, row := range rows {
				boundRows[i] = layout.place(row, nil)
				want, err := tree.Predict(layout.attrs, boundRows[i])
				if err != nil {
					t.Fatalf("seed %d: pointer walk: %v", seed, err)
				}
				checkBits(t, "flattened/"+layout.name, i, want, bound.Predict(boundRows[i]))
			}
			scalarVsBatch(t, boundRows, bound.Predict, bound.PredictBatch)
		}
	}
}

func TestRegtreeFlattenedAndBatchMatchPointerWalk(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.NewNamed(seed, "difftest/regtree")
		attrs := attrNames(4 + r.Intn(4))
		ds := randDataset(r, attrs, 200+r.Intn(200))
		tree, err := regtree.Fit(ds, regtree.Options{MinInstances: 5 + r.Intn(10)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		padded, place := padLayout(attrs)
		bound, err := tree.Bind(padded)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rows := randRows(r, len(attrs), 512)
		boundRows := make([][]float64, len(rows))
		for i, row := range rows {
			boundRows[i] = place(row, nil)
			want, err := tree.Predict(padded, boundRows[i])
			if err != nil {
				t.Fatalf("seed %d: pointer walk: %v", seed, err)
			}
			checkBits(t, "flattened", i, want, bound.Predict(boundRows[i]))
		}
		scalarVsBatch(t, boundRows, bound.Predict, bound.PredictBatch)
	}
}

func TestLinregBoundAndBatchMatchModel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.NewNamed(seed, "difftest/linreg")
		attrs := attrNames(4 + r.Intn(4))
		ds := randDataset(r, attrs, 150+r.Intn(150))
		model, err := linreg.Fit(ds, linreg.Options{EliminateAttrs: seed%2 == 0})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		padded, place := padLayout(attrs)
		bound, err := model.Bind(padded)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rows := randRows(r, len(attrs), 512)
		boundRows := make([][]float64, len(rows))
		for i, row := range rows {
			boundRows[i] = place(row, nil)
			want, err := model.Predict(padded, boundRows[i])
			if err != nil {
				t.Fatalf("seed %d: model predict: %v", seed, err)
			}
			checkBits(t, "bound", i, want, bound.Predict(boundRows[i]))
		}
		scalarVsBatch(t, boundRows, bound.Predict, bound.PredictBatch)
	}
}

// TestServingPathsAgreeOnAgingStream is the end-to-end differential check on
// a real simulated aging stream (the fleet's deterministic seed-1 training
// runs, the same generator behind the experiment 4.1 goldens): for each model
// family, a projected serving Session, the same sessions evaluated through
// core.Batch at the shard-tick grouping, and the reference full-extraction +
// Model.PredictRow path must produce bit-identical predictions at every
// checkpoint of every stream.
func TestServingPathsAgreeOnAgingStream(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three models")
	}
	series, err := fleet.TrainingSeries(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.ModelKind{core.ModelM5P, core.ModelRegressionTree, core.ModelLinearRegression} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m, err := core.Train(core.Config{Model: kind}, series)
			if err != nil {
				t.Fatal(err)
			}
			attrs := m.Attrs()

			// Reference path: full extraction, scalar PredictRow.
			refs := make([][]core.Prediction, len(series))
			for si, sr := range series {
				x := m.Schema().Stream()
				refs[si] = make([]core.Prediction, sr.Len())
				for ci, cp := range sr.Checkpoints {
					row := x.Step(cp)
					pr, err := m.PredictRow(cp.TimeSec, attrs, row)
					if err != nil {
						t.Fatal(err)
					}
					refs[si][ci] = pr
				}
			}

			check := func(path string, si, ci int, got core.Prediction) {
				t.Helper()
				want := refs[si][ci]
				if math.Float64bits(want.TTFSec) != math.Float64bits(got.TTFSec) ||
					want.TTF != got.TTF || want.CrashExpected != got.CrashExpected {
					t.Fatalf("%s: series %d checkpoint %d: %+v != reference %+v", path, si, ci, got, want)
				}
			}

			// Projected scalar sessions.
			for si, sr := range series {
				sess := m.NewSession()
				for ci, cp := range sr.Checkpoints {
					pr, err := sess.Observe(cp)
					if err != nil {
						t.Fatal(err)
					}
					check("session", si, ci, pr)
				}
			}

			// Batch serving: all streams advance in lockstep, one shard-tick
			// batch per time step, exactly like the fleet's shard workers.
			sessions := make([]*core.Session, len(series))
			for i := range sessions {
				sessions[i] = m.NewSession()
			}
			batch := m.NewBatch(len(sessions))
			maxLen := 0
			for _, sr := range series {
				if sr.Len() > maxLen {
					maxLen = sr.Len()
				}
			}
			for ci := 0; ci < maxLen; ci++ {
				batch.Reset()
				var staged []int
				for si, sr := range series {
					if ci >= sr.Len() {
						continue
					}
					cp := sr.Checkpoints[ci]
					if err := batch.Stage(sessions[si], &cp); err != nil {
						t.Fatal(err)
					}
					staged = append(staged, si)
				}
				preds, err := batch.Predict()
				if err != nil {
					t.Fatal(err)
				}
				for k, si := range staged {
					check("batch", si, ci, preds[k])
				}
			}
		})
	}
}

// TestBatchRejectsForeignSession pins the one Stage error path: a session of
// a different model must be rejected, not silently evaluated with the wrong
// regressor.
func TestBatchRejectsForeignSession(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	series, err := fleet.TrainingSeries(1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Train(core.Config{}, series)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Train(core.Config{Model: core.ModelLinearRegression}, series)
	if err != nil {
		t.Fatal(err)
	}
	batch := a.NewBatch(1)
	var cp monitor.Checkpoint
	cp.TimeSec = 15
	if err := batch.Stage(b.NewSession(), &cp); err == nil {
		t.Fatal("staging a foreign session succeeded")
	}
}
