package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"agingpred/internal/dataset"
	"agingpred/internal/evalx"
	"agingpred/internal/features"
	"agingpred/internal/flattree"
	"agingpred/internal/linreg"
	"agingpred/internal/m5p"
	"agingpred/internal/monitor"
	"agingpred/internal/regtree"
)

// Model is an immutable trained aging-prediction model: the fitted
// M5P/linreg/regtree regressor together with the feature schema it was
// trained under and the schema-bound (index-compiled) form of the regressor.
//
// A Model carries no per-stream state, so it is safe for concurrent use: the
// paper's train-once/serve-everywhere split maps to training (or loading) one
// Model and fanning out one Session per monitored checkpoint stream via
// NewSession. Models are created by Train, TrainDataset or DecodeModel —
// never mutated afterwards.
type Model struct {
	cfg    Config // effective (defaults applied)
	schema *features.Schema
	attrs  []string

	reg     regressor
	m5pTree *m5p.Tree // non-nil only for ModelM5P
	// bound is the regressor compiled against the model's schema (index-
	// based, allocation-free). It is nil when the trained regressor references
	// attributes outside the schema — a dataset trained under a wider schema —
	// in which case sessions fall back to the name-resolving path.
	bound *flattree.Tree
	// prog is the feature program every session runs, compiled once at
	// bind time: projected onto bound.Columns() — the schema columns the
	// bound regressor can read — or every column for an unbound model.
	prog *features.Program
	// infiniteSec caches cfg.InfiniteTTF.Seconds(): clamp runs once per
	// prediction and the Duration division is measurable at fleet rates.
	infiniteSec float64
	// fallbackMu serialises the name-resolving fallback: the regressors'
	// Predict caches attribute resolutions lazily, so without the lock
	// concurrent sessions of an unbound model would race on that shared
	// cache. The bound hot path never touches it.
	fallbackMu sync.Mutex

	report TrainReport
}

// Train fits a Model from one or more monitored executions (typically a
// handful of run-to-crash executions at different workloads and injection
// rates, as in the paper). The zero Config reproduces the paper's setup.
func Train(cfg Config, series []*monitor.Series) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(series) == 0 {
		return nil, errors.New("core: no training series")
	}
	cfg = cfg.withDefaults()
	ds, err := cfg.Schema.ExtractAll("training", series)
	if err != nil {
		return nil, fmt.Errorf("core: extracting training features: %w", err)
	}
	return fitEffective(cfg, ds)
}

// TrainDataset fits a Model from an already-extracted dataset (e.g. loaded
// from CSV by cmd/agingpredict). The dataset's columns become the regressor's
// training attributes; they should match the schema selected by cfg, but a
// wider or reordered dataset is accepted — sessions then evaluate through the
// name-resolving path instead of the compiled one.
func TrainDataset(cfg Config, ds *dataset.Dataset) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return fitEffective(cfg.withDefaults(), ds)
}

// fitEffective fits the selected model family on the dataset. cfg must
// already have its defaults applied.
func fitEffective(cfg Config, ds *dataset.Dataset) (*Model, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("core: empty training dataset")
	}
	m := &Model{
		cfg:    cfg,
		schema: cfg.Schema,
		attrs:  cfg.Schema.Attrs(),
		report: TrainReport{Model: cfg.Model, Instances: ds.Len(), Attributes: ds.NumAttrs(), Schema: cfg.Schema.Name()},
	}
	switch cfg.Model {
	case ModelM5P:
		tree, err := m5p.Fit(ds, m5p.Options{
			MinInstances: cfg.MinLeafInstances,
			Unpruned:     cfg.Unpruned,
			NoSmoothing:  cfg.NoSmoothing,
			LeafMaxAttrs: cfg.LeafMaxAttrs,
		})
		if err != nil {
			return nil, fmt.Errorf("core: fitting M5P: %w", err)
		}
		m.reg = tree
		m.m5pTree = tree
		m.report.Leaves = tree.Leaves()
		m.report.InnerNodes = tree.InnerNodes()
	case ModelLinearRegression:
		lr, err := linreg.Fit(ds, linreg.Options{EliminateAttrs: true})
		if err != nil {
			return nil, fmt.Errorf("core: fitting linear regression: %w", err)
		}
		m.reg = lr
	case ModelRegressionTree:
		rt, err := regtree.Fit(ds, regtree.Options{MinInstances: cfg.MinLeafInstances})
		if err != nil {
			return nil, fmt.Errorf("core: fitting regression tree: %w", err)
		}
		m.reg = rt
		m.report.Leaves = rt.Leaves()
		m.report.InnerNodes = rt.InnerNodes()
	default:
		return nil, fmt.Errorf("core: unknown model kind %q", cfg.Model)
	}
	if err := m.bind(); err != nil {
		return nil, err
	}
	return m, nil
}

// bind compiles the regressor against the model's schema: attribute names
// are resolved to row indices once, so Session.Observe needs no lookups and
// no allocations per checkpoint. When the regressor references attributes
// outside the schema (a dataset trained under a wider schema), bound stays
// nil and sessions keep the name-resolving fallback, which reports the
// mismatch per call. It then compiles the feature program all sessions
// share.
func (m *Model) bind() error {
	m.bound = nil
	m.infiniteSec = m.cfg.InfiniteTTF.Seconds()
	var cols []int // nil: every column, for the name-resolving fallback
	if bt, err := m.reg.Bind(m.attrs); err == nil {
		m.bound = bt
		cols = bt.Columns()
	}
	prog, err := m.schema.Compile(cols)
	if err != nil {
		return fmt.Errorf("core: compiling the feature program: %w", err)
	}
	m.prog = prog
	return nil
}

// Kind returns the model family.
func (m *Model) Kind() ModelKind { return m.cfg.Model }

// Config returns the effective configuration the model was trained under.
func (m *Model) Config() Config { return m.cfg }

// Schema returns the feature schema the model extracts and predicts on.
func (m *Model) Schema() *features.Schema { return m.schema }

// Attrs returns the attribute names of the feature vectors the model's
// sessions consume, in row order.
func (m *Model) Attrs() []string { return append([]string(nil), m.attrs...) }

// Report describes the training round (instances, attributes, tree shape).
// For decoded models it is the report of the original training round.
func (m *Model) Report() TrainReport { return m.report }

// clamp post-processes a raw regressor output: predictions are clamped to
// [0, InfiniteTTF] and stamped with the checkpoint time they were issued at.
func (m *Model) clamp(timeSec, raw float64) Prediction {
	infinite := m.infiniteSec
	ttf := raw
	if ttf < 0 {
		ttf = 0
	}
	if ttf > infinite {
		ttf = infinite
	}
	return Prediction{
		TimeSec:       timeSec,
		TTF:           time.Duration(ttf * float64(time.Second)),
		TTFSec:        ttf,
		CrashExpected: ttf < infinite*0.999,
	}
}

// PredictRow predicts the time to failure for a single already-extracted
// feature vector issued at timeSec (pass 0 when the row carries no meaningful
// time). attrs names the columns of row; the row schema may be wider or
// reordered as long as every attribute the regressor uses is present. Use a
// Session for live checkpoints — PredictRow exists for datasets that were
// extracted earlier (e.g. loaded from CSV by cmd/agingpredict).
func (m *Model) PredictRow(timeSec float64, attrs []string, row []float64) (Prediction, error) {
	// The name-resolving Predict lazily caches attribute resolutions inside
	// the shared regressor; serialise it so the Model stays safe for
	// concurrent use even off the compiled hot path.
	m.fallbackMu.Lock()
	raw, err := m.reg.Predict(attrs, row)
	m.fallbackMu.Unlock()
	if err != nil {
		return Prediction{}, fmt.Errorf("core: predicting: %w", err)
	}
	return m.clamp(timeSec, raw), nil
}

// EvaluateDataset evaluates the model on an already-extracted dataset whose
// target column holds the true time to failure — the CSV-level counterpart of
// Evaluate. Checkpoint datasets carry no explicit time column, so each row's
// prediction time is reconstructed as (i+1)·interval (interval <= 0 uses the
// paper's 15-second monitoring interval); for datasets merged from several
// executions the reconstructed times are monotone but synthetic.
func (m *Model) EvaluateDataset(ds *dataset.Dataset, interval time.Duration, opts evalx.Options) (evalx.Report, error) {
	if ds == nil || ds.Len() == 0 {
		return evalx.Report{}, errors.New("core: empty evaluation dataset")
	}
	if interval <= 0 {
		interval = monitor.DefaultInterval
	}
	dt := interval.Seconds()
	attrs := ds.Attrs()
	preds := make([]evalx.Prediction, 0, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		pr, err := m.PredictRow(float64(i+1)*dt, attrs, ds.Row(i))
		if err != nil {
			return evalx.Report{}, err
		}
		preds = append(preds, evalx.Prediction{
			TimeSec:      pr.TimeSec,
			TrueTTF:      ds.TargetValue(i),
			PredictedTTF: pr.TTFSec,
		})
	}
	if opts.Model == "" {
		opts.Model = string(m.cfg.Model)
	}
	return evalx.Evaluate(preds, opts)
}

// PredictSeries replays a monitored series through a fresh session and
// returns one evalx.Prediction per checkpoint, pairing the model output with
// the series' true TTF labels.
func (m *Model) PredictSeries(s *monitor.Series) ([]evalx.Prediction, error) {
	if s == nil || s.Len() == 0 {
		return nil, errors.New("core: empty test series")
	}
	sess := m.NewSession()
	out := make([]evalx.Prediction, 0, s.Len())
	for _, cp := range s.Checkpoints {
		pred, err := sess.Observe(cp)
		if err != nil {
			return nil, err
		}
		out = append(out, evalx.Prediction{
			TimeSec:      cp.TimeSec,
			TrueTTF:      cp.TTFSec,
			PredictedTTF: pred.TTFSec,
		})
	}
	return out, nil
}

// PredictSeriesAgainst is like PredictSeries but evaluates the model output
// against caller-supplied reference TTF labels instead of the series' own
// labels. The paper uses this for experiment 4.2, where the "true" time to
// failure of each checkpoint is defined by freezing the current injection
// rate and simulating until the crash.
func (m *Model) PredictSeriesAgainst(s *monitor.Series, referenceTTF []float64) ([]evalx.Prediction, error) {
	if s == nil || s.Len() == 0 {
		return nil, errors.New("core: empty test series")
	}
	if len(referenceTTF) != s.Len() {
		return nil, fmt.Errorf("core: %d reference labels for %d checkpoints", len(referenceTTF), s.Len())
	}
	preds, err := m.PredictSeries(s)
	if err != nil {
		return nil, err
	}
	for i := range preds {
		preds[i].TrueTTF = referenceTTF[i]
	}
	return preds, nil
}

// Evaluate replays a test series through a fresh session and computes the
// paper's accuracy metrics (MAE, S-MAE, PRE-MAE, POST-MAE).
func (m *Model) Evaluate(s *monitor.Series, opts evalx.Options) (evalx.Report, error) {
	preds, err := m.PredictSeries(s)
	if err != nil {
		return evalx.Report{}, err
	}
	if opts.Model == "" {
		opts.Model = string(m.cfg.Model)
	}
	return evalx.Evaluate(preds, opts)
}

// RootCause inspects the learned model and returns hints about which
// resources are implicated in the coming failure, most significant first.
// Only the M5P family carries the tree structure the paper inspects.
func (m *Model) RootCause(maxDepth int) ([]RootCauseHint, error) {
	if maxDepth <= 0 {
		maxDepth = 3
	}
	if m.m5pTree == nil {
		return nil, fmt.Errorf("core: root-cause hints require an M5P model (have %s)", m.cfg.Model)
	}
	splits := m.m5pTree.TopSplits(maxDepth)
	counts := m.m5pTree.SplitAttributeCounts()
	seen := make(map[string]bool)
	hints := make([]RootCauseHint, 0, len(splits))
	for _, sp := range splits {
		if seen[sp.Attr] {
			continue
		}
		seen[sp.Attr] = true
		hints = append(hints, RootCauseHint{
			Attr:      sp.Attr,
			Threshold: sp.Threshold,
			Depth:     sp.Depth,
			Splits:    counts[sp.Attr],
		})
	}
	return hints, nil
}

// Description returns a human-readable rendering of the learned model (the
// full M5P tree with its leaf equations, or the regression formula).
func (m *Model) Description() string {
	switch r := m.reg.(type) {
	case *m5p.Tree:
		return r.String()
	case *linreg.Model:
		return fmt.Sprintf("%s = %s", features.Target, r.String())
	case *regtree.Tree:
		return r.String()
	default:
		return fmt.Sprintf("%T", m.reg)
	}
}

// Session is the per-stream on-line state of one Model: the sliding-window
// derived-feature extractor for a single monitored checkpoint stream. The
// shared trained Model is read-only; all mutation on the hot path happens in
// the session, so serving many servers means one cheap Session each, all
// observing concurrently against the same Model.
//
// A Session serves one checkpoint stream and is NOT safe for concurrent use
// itself (Observe mutates the sliding windows); sessions are the unit of
// concurrency. Sessions are pooling-friendly: Reset reuses every buffer, so a
// fleet-scale rejuvenation wave allocates nothing.
type Session struct {
	m      *Model
	stream features.RowExtractor
}

// NewSession creates a fresh per-stream session for the model. It only lays
// out state: the feature program is the model's, compiled once at bind time
// and shared by every session. For a schema-bound model that program is
// projected onto the columns the bound regressor can actually read (Columns
// of the flattened layout): derived columns the model never looks at are
// not computed at all, and resources no computed column reads are not
// tracked. Projection cannot change any prediction — the computed columns go
// through exactly the full extractor's arithmetic, and the skipped ones are,
// by construction, never read.
func (m *Model) NewSession() *Session {
	mSessions.Inc()
	s := &Session{m: m}
	s.stream.Init(m.prog)
	return s
}

// Model returns the shared model the session predicts with.
func (s *Session) Model() *Model { return s.m }

// Observe consumes one live checkpoint of the session's stream and returns
// the prediction for it. In steady state it performs no allocations: the
// feature row is computed into the session's reusable buffer by the compiled
// schema extractor and the regressor is evaluated through its schema-bound
// form (BenchmarkObserve pins 0 allocs/op).
func (s *Session) Observe(cp monitor.Checkpoint) (Prediction, error) {
	mPredictions.Inc()
	row := s.stream.Step(cp)
	m := s.m
	if m.bound != nil {
		return m.clamp(cp.TimeSec, m.bound.Predict(row)), nil
	}
	// Name-resolving fallback for models whose regressor could not be bound
	// to the schema (trained on a wider dataset); PredictRow serialises the
	// shared regressor's lazy resolution cache, so concurrent sessions stay
	// correct — they just lose the lock-free hot path.
	return m.PredictRow(cp.TimeSec, m.attrs, row)
}

// Reset clears the session's sliding-window state (use after a rejuvenation
// action or when re-pointing the session at a different server). It reuses
// the existing buffers, so resetting allocates nothing.
func (s *Session) Reset() {
	s.stream.Reset()
}
