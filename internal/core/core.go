// Package core backs the public agingpred API: an adaptive, on-line
// software-aging predictor in the spirit of Alonso et al. (DSN 2010).
//
// The API mirrors the paper's two-phase workflow. Off-line, Train fits an
// immutable Model on a handful of monitored failure executions
// (monitor.Series). On-line, Model.NewSession creates one cheap per-stream
// Session per monitored server; every 15-second checkpoint pushed through
// Session.Observe runs the derived-feature pipeline (consumption speeds
// smoothed over a sliding window, Table 2 of the paper) and the
// machine-learning model — an M5P model tree by default — outputs the
// predicted time until that server fails. Because the features include the
// current consumption speeds, the prediction automatically adapts when the
// aging trend changes: if the leak slows down, the predicted time to failure
// grows, and vice versa.
//
// Models persist: Model.Encode writes a versioned artifact that DecodeModel
// loads in any process, so serving never retrains. The learned model also
// doubles as a root-cause hint: the attributes tested near the root of the
// model tree are the resources most strongly related to the coming failure
// (Section 4.4 of the paper).
//
// Example:
//
//	model, _ := core.Train(core.Config{}, trainingSeries)
//	sess := model.NewSession()              // one per monitored server
//	for cp := range checkpoints {           // live 15-second checkpoints
//	    pred, _ := sess.Observe(cp)
//	    if pred.CrashExpected && pred.TTF < 10*time.Minute {
//	        triggerRejuvenation()
//	    }
//	}
package core

import (
	"fmt"
	"strings"
	"time"

	"agingpred/internal/features"
	"agingpred/internal/flattree"
	"agingpred/internal/linreg"
	"agingpred/internal/m5p"
	"agingpred/internal/monitor"
	"agingpred/internal/regtree"
)

// ModelKind selects the learning algorithm backing a Model.
type ModelKind string

// The available model families. M5P is the paper's choice; the other two are
// the baselines it is compared against (linear regression in Tables 3–4, the
// plain decision/regression tree in the authors' earlier study).
const (
	ModelM5P              ModelKind = "m5p"
	ModelLinearRegression ModelKind = "linreg"
	ModelRegressionTree   ModelKind = "regtree"
)

// Config configures training. The zero value reproduces the paper's setup:
// an M5P tree over the full Table 2 variable set, with 10 instances per leaf
// and a 12-checkpoint sliding window.
type Config struct {
	// Model is the learning algorithm (default ModelM5P).
	Model ModelKind
	// Schema selects the feature schema the model extracts and learns on
	// (see the features schema registry: "full", "no-heap", "heap-focus",
	// "full+conn", or any caller-registered schema). When nil, the full
	// Table 2 schema is used.
	Schema *features.Schema
	// WindowLength is the sliding-window length, in checkpoints, used for
	// the derived consumption-speed features (default 12, or the schema's
	// own default). A non-default value re-parameterises the schema via
	// Schema.WithWindow.
	WindowLength int
	// MinLeafInstances is the minimum number of instances per tree leaf
	// (default 10, as reported by the paper for every experiment).
	MinLeafInstances int
	// LeafMaxAttrs caps the attributes each leaf linear model may consider;
	// keeps training fast on the ~50-variable Table 2 set (default 15,
	// 0 keeps the default; set to -1 for no cap).
	LeafMaxAttrs int
	// Unpruned and NoSmoothing expose the corresponding M5P options for
	// ablation studies.
	Unpruned    bool
	NoSmoothing bool
	// InfiniteTTF is the time-to-failure that means "no failure in sight"
	// (default 3 h = 10800 s, the paper's convention).
	InfiniteTTF time.Duration
}

func (c Config) withDefaults() Config {
	if c.Model == "" {
		c.Model = ModelM5P
	}
	if c.Schema == nil {
		// The built-in schemas are registered at init, so the lookup cannot
		// fail.
		c.Schema, _ = features.LookupSchema(features.FullSchemaName)
	}
	if c.WindowLength > 0 {
		c.Schema = c.Schema.WithWindow(c.WindowLength)
	} else {
		// Leave a caller-supplied schema's own default window untouched;
		// echo the effective value so Config() reports it.
		c.WindowLength = c.Schema.WindowLength()
	}
	if c.MinLeafInstances <= 0 {
		c.MinLeafInstances = m5p.DefaultMinInstances
	}
	switch {
	case c.LeafMaxAttrs == 0:
		c.LeafMaxAttrs = 15
	case c.LeafMaxAttrs < 0:
		c.LeafMaxAttrs = 0 // no cap
	}
	if c.InfiniteTTF <= 0 {
		c.InfiniteTTF = time.Duration(monitor.InfiniteTTFSec * float64(time.Second))
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch c.Model {
	case ModelM5P, ModelLinearRegression, ModelRegressionTree:
	default:
		return fmt.Errorf("core: unknown model kind %q", c.Model)
	}
	return nil
}

// regressor is the behaviour shared by the three model families: the
// name-resolving Predict, and Bind, which compiles the model against a row
// schema into the one flattened evaluator all three share — the Observe hot
// path.
type regressor interface {
	Predict(attrs []string, row []float64) (float64, error)
	Bind(attrs []string) (*flattree.Tree, error)
}

// Statically verify the three backing models satisfy the interface.
var (
	_ regressor = (*m5p.Tree)(nil)
	_ regressor = (*linreg.Model)(nil)
	_ regressor = (*regtree.Tree)(nil)
)

// TrainReport summarises a training round, mirroring the numbers the paper
// reports for each experiment ("the model generated was composed by 36 leafs
// and 35 inner nodes, using 10 instances to build every leaf", trained on N
// instances). The JSON field names are part of the persisted model format.
type TrainReport struct {
	Model      ModelKind `json:"model"`
	Instances  int       `json:"instances"`
	Attributes int       `json:"attributes"`
	// Schema names the feature schema the model was trained on.
	Schema string `json:"schema"`
	// Leaves and InnerNodes describe tree models; they are zero for linear
	// regression.
	Leaves     int `json:"leaves,omitempty"`
	InnerNodes int `json:"inner_nodes,omitempty"`
}

// String renders the report in the paper's style.
func (r TrainReport) String() string {
	schema := ""
	if r.Schema != "" {
		schema = fmt.Sprintf(", schema %s", r.Schema)
	}
	if r.Leaves > 0 {
		return fmt.Sprintf("%s model: %d leaves, %d inner nodes, trained on %d instances (%d attributes%s)",
			r.Model, r.Leaves, r.InnerNodes, r.Instances, r.Attributes, schema)
	}
	return fmt.Sprintf("%s model trained on %d instances (%d attributes%s)", r.Model, r.Instances, r.Attributes, schema)
}

// Prediction is one on-line prediction.
type Prediction struct {
	// TimeSec is the checkpoint time the prediction was issued at.
	TimeSec float64
	// TTF is the predicted time until failure.
	TTF time.Duration
	// TTFSec is the same value in seconds (convenient for plots and tables).
	TTFSec float64
	// CrashExpected is false when the prediction is at or beyond the
	// "infinite" horizon, i.e. the model sees no aging.
	CrashExpected bool
}

// RootCauseHint is one clue extracted from the structure of the learned
// model: an attribute the model consults prominently when deciding how long
// the system has left.
type RootCauseHint struct {
	// Attr is the attribute (metric) name.
	Attr string
	// Threshold is the split value at the shallowest node testing the
	// attribute.
	Threshold float64
	// Depth is that node's depth (0 = root: the strongest hint).
	Depth int
	// Splits is how many nodes across the whole tree test this attribute.
	Splits int
}

// FormatRootCause renders root-cause hints as a short human-readable report.
func FormatRootCause(hints []RootCauseHint) string {
	if len(hints) == 0 {
		return "no root-cause hints (model has no splits)"
	}
	var b strings.Builder
	b.WriteString("Root-cause hints (from the top of the model tree):\n")
	for i, h := range hints {
		fmt.Fprintf(&b, "  %d. %s (split at %.4g, depth %d, used in %d splits)\n",
			i+1, h.Attr, h.Threshold, h.Depth, h.Splits)
	}
	return b.String()
}
