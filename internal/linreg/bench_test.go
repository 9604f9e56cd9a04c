package linreg

import (
	"fmt"
	"math"
	"testing"

	"agingpred/internal/dataset"
	"agingpred/internal/rng"
)

// retrainNode builds a node shaped like the adaptive loop's retraining
// buffer at the root of its M5P tree: 32 runs of a leaking server, 12,700
// checkpoints of the 49 attributes of the full feature set, the target the
// time left until the crash. Attributes are leak trends of assorted
// strength, their ratios to the elapsed time, workload oscillations and
// noise, so several of them are strongly collinear. The rows come shuffled,
// as a node's rows do after the tree's partitioning.
func retrainNode() (*dataset.Dataset, []int32) {
	const runs, perRun, attrs = 32, 397, 49
	src := rng.New(18)
	names := make([]string, attrs)
	weight := make([]float64, attrs)
	for j := range names {
		names[j] = fmt.Sprintf("v%d", j)
		weight[j] = src.Float64Between(0.2, 3)
	}
	ds := dataset.MustNew("retrain", names, "ttf")
	row := make([]float64, attrs)
	for r := 0; r < runs; r++ {
		leak := src.Float64Between(0.5, 2)
		phase := src.Float64Between(0, 2*math.Pi)
		for t := 0; t < perRun; t++ {
			mem := leak*float64(t) + src.Normal(0, 5)
			for j := range row {
				switch j % 4 {
				case 0:
					row[j] = weight[j]*mem + src.Normal(0, 1)
				case 1:
					row[j] = mem / (1 + weight[j]*float64(t))
				case 2:
					row[j] = 100*math.Sin(phase+float64(t)/(10*weight[j])) + src.Normal(0, 3)
				default:
					row[j] = src.Normal(0, weight[j])
				}
			}
			if err := ds.Append(row, 15*float64(perRun-t)); err != nil {
				panic(err)
			}
		}
	}
	rows := make([]int32, ds.Len())
	for i, r := range src.Perm(ds.Len()) {
		rows[i] = int32(r)
	}
	return ds, rows
}

// BenchmarkFitRowsEliminate measures one node model fit with attribute
// elimination, capped at M5P's default of 15 attributes, on the retraining
// buffer's root node.
func BenchmarkFitRowsEliminate(b *testing.B) {
	ds, rows := retrainNode()
	opts := Options{EliminateAttrs: true, MaxAttrs: 15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitRows(ds, rows, opts); err != nil {
			b.Fatal(err)
		}
	}
}
