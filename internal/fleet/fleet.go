// Package fleet is the fleet-scale serving layer on top of the single-server
// aging predictor: it simulates N application-server instances with
// heterogeneous leak profiles, workloads and phase offsets (all drawn
// deterministically from one seed), streams every instance's 15-second
// checkpoints through sharded predictor workers, and closes the monitor →
// predict → rejuvenate loop with a fleet-level controller that acts on the
// predicted time to failure under a concurrency-capped rejuvenation budget.
//
// The paper validates its adaptive M5P predictor against one three-tier
// testbed instance; this package is the layer that turns that single
// predictor into an online prediction service over thousands of concurrent
// instances. The architecture:
//
//	  ┌── driver (one tick = one checkpoint interval) ──────────────┐
//	  │ publish tick clock, one wake-up per shard                   │
//	  └──┬──────────────────────────────────────────────────────────┘
//	     │ consistent instance→shard hash (static ownership)
//	┌────▼────┐   ┌─────────┐        ┌─────────┐  step owned instances,
//	│ shard 0 │   │ shard 1 │  ...   │ shard S │  batch extraction +
//	└────┬────┘   └────┬────┘        └────┬────┘  PredictBatch sweep,
//	     └─────────────┴── tick barrier ──┘       per-instance results
//	  driver merge (instance-ID order): report/journal fold, then
//	  controller: per-instance predictive policies → budgeted
//	  rejuvenations, crash handling, fleet aggregates
//
// Every instance owns a Session of one shared immutable core.Model (train —
// or load — once, fan out per-stream sessions), and each instance's
// simulator state and session are touched only by its instance's shard: a
// tick is one barrier — the shard workers step their own instances, extract
// features, predict in batch and record, then the driver folds the
// per-instance outcomes. Each instance draws from its own named RNG stream,
// so its trajectory is independent of which shard steps it; all
// cross-instance accounting happens on the driver goroutine in instance-ID
// order after the tick barrier. The whole run — including the -json summary
// and the event journal — is therefore a pure function of (seed, instances,
// duration): byte-identical across repetitions and shard counts apart from
// the echoed "shards" field of the report.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"agingpred/internal/adapt"
	"agingpred/internal/core"
	"agingpred/internal/evalx"
	"agingpred/internal/features"
	"agingpred/internal/monitor"
	"agingpred/internal/obs"
	"agingpred/internal/rejuv"
)

// Config describes one fleet run. The zero value is not runnable; Instances
// and Duration are required.
type Config struct {
	// Instances is the fleet size. Required.
	Instances int
	// Shards is the number of predictor workers (0 = GOMAXPROCS). Shard
	// count affects wall-clock speed only, never the results.
	Shards int
	// Duration is the simulated time to serve. Required.
	Duration time.Duration
	// Seed makes the whole run reproducible.
	Seed uint64
	// CheckpointInterval is the monitoring interval (0 = 15 s).
	CheckpointInterval time.Duration
	// TTFThreshold is the predicted time to failure below which an instance
	// raises a rejuvenation alert (0 = 10 min).
	TTFThreshold time.Duration
	// Confirmations is how many consecutive checkpoints must agree before
	// the alert fires (0 = 3).
	Confirmations int
	// RejuvenationBudget caps concurrent controlled restarts
	// (0 = max(1, Instances/10)).
	RejuvenationBudget int
	// RejuvenationDowntime is how long a controlled restart takes (0 = 2 min).
	RejuvenationDowntime time.Duration
	// CrashDowntime is how long recovering from a crash takes — detection,
	// restart, cache warm-up (0 = 10 min). Crashing must hurt more than
	// rejuvenating, or predicting would be pointless.
	CrashDowntime time.Duration
	// Model optionally supplies the shared trained model (each instance gets
	// its own Session of it; the model itself is immutable and shared). Nil
	// trains one with TrainModel, which costs a few wall-clock seconds. A
	// saved artifact loaded with agingpred.LoadModel plugs in here, so a
	// fleet can serve without retraining.
	Model *core.Model
	// Schema selects the feature schema of the shared model trained when
	// Model is nil (nil = the full Table 2 schema). Ignored when Model is
	// supplied.
	Schema *features.Schema
	// Adaptive turns on adaptive serving (internal/adapt): every instance's
	// predictions are scored against its eventually-observed crash time, a
	// drift detector watches the resolved error, and a background worker
	// retrains the shared model on the crashed runs the fleet itself
	// collected, publishing each new model as an epoch that instances adopt
	// at their next post-crash/post-rejuvenation reset. The run stays
	// deterministic: retraining input is fixed at the trigger tick and the
	// publish lands exactly RetrainLatency of simulated time later,
	// regardless of how long the background training really takes.
	Adaptive bool
	// Adapt tunes the adaptive loop (drift detector, training-buffer bound).
	// When its Seed is nil and the fleet trains its own base model, the
	// supervisor's buffer is seeded with that training series so a retrain
	// extends the coverage instead of forgetting it. Ignored unless Adaptive.
	Adapt adapt.Config
	// RetrainLatency is the simulated time between a drift-triggered retrain
	// starting and its model epoch being published (0 = 10 min). A trigger
	// less than RetrainLatency before the end of the run starts no retrain,
	// since its epoch could never be published. Ignored unless Adaptive.
	RetrainLatency time.Duration
	// ClassSchemas chooses a feature schema per instance class: every
	// instance of a class with a non-nil entry gets a model trained on
	// that schema instead of the shared one (one extra training run per
	// distinct schema, deterministic in Seed). This is how the conn-leak
	// class gets the "full+conn" connection-speed derivatives while the rest
	// of the fleet stays on the paper's variable set. An override naming the
	// base model's own schema reuses the base; any other override trains on
	// the fleet's own TrainingSeries(Seed) — so combining a caller-supplied
	// Model (trained on other data) with overrides makes the per-class
	// comparison mix training sources.
	ClassSchemas map[Class]*features.Schema
	// Journal optionally receives the run's discrete lifecycle events
	// (crashes, rejuvenation alerts/dispatches/completions, drift trips,
	// retrains, epoch swaps) as JSONL records; nil means journaling off. All
	// events are emitted from the driver goroutine in tick order behind the
	// tick barrier, in instance-ID order within a tick, so the journal of a
	// seeded run is byte-identical across repetitions and shard counts.
	Journal *obs.Journal
	// Ctx optionally cancels the run between ticks.
	Ctx context.Context

	// serialStep selects the retained serial-stepping reference path: the
	// pool starts no workers and the driver runs every shard tick inline on
	// its own goroutine, in shard order. Identical results to the parallel
	// engine by construction (per-instance RNG streams, post-barrier
	// ID-order merge); the in-package determinism tests diff the two. A
	// test hook, deliberately unexported.
	serialStep bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = monitor.DefaultInterval
	}
	if c.TTFThreshold <= 0 {
		c.TTFThreshold = 10 * time.Minute
	}
	if c.Confirmations <= 0 {
		c.Confirmations = 3
	}
	if c.RejuvenationBudget <= 0 {
		// Default cap: at most a tenth of the fleet restarting at once.
		// Rejuvenations are short, so this clears alert waves quickly while
		// still bounding the capacity dip.
		c.RejuvenationBudget = c.Instances / 10
		if c.RejuvenationBudget < 1 {
			c.RejuvenationBudget = 1
		}
	}
	if c.RejuvenationDowntime <= 0 {
		c.RejuvenationDowntime = 2 * time.Minute
	}
	if c.CrashDowntime <= 0 {
		c.CrashDowntime = 10 * time.Minute
	}
	if c.RetrainLatency <= 0 {
		c.RetrainLatency = 10 * time.Minute
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Instances <= 0 {
		return fmt.Errorf("fleet: non-positive instance count %d", c.Instances)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("fleet: non-positive duration %v", c.Duration)
	}
	// core.Train/DecodeModel only hand out fully-built models, but a zero
	// &core.Model{} is still constructible; reject it here instead of
	// panicking on its nil schema deep inside the run.
	if c.Model != nil && c.Model.Schema() == nil {
		return fmt.Errorf("fleet: supplied model is not a trained model (zero core.Model)")
	}
	for class := range c.ClassSchemas {
		if class < 0 || class >= numClasses {
			return fmt.Errorf("fleet: ClassSchemas key %d is not a valid class (know %s)",
				int(class), strings.Join(ClassNames(), ", "))
		}
	}
	if c.Adaptive && len(c.ClassSchemas) > 0 {
		// Adaptive serving retrains and swaps the shared base model; the
		// per-class override models would stay frozen beside it and the
		// epoch accounting would be ambiguous. Support one axis at a time.
		return fmt.Errorf("fleet: Adaptive cannot be combined with ClassSchemas (the per-class override models would not adapt)")
	}
	return nil
}

// ClassReport aggregates one instance class of the fleet.
type ClassReport struct {
	// Class is the aging-fault bucket ("healthy", "mem-leak", ...).
	Class string `json:"class"`
	// Schema names the feature schema the class's predictors ran on.
	Schema string `json:"schema"`
	// Instances is how many fleet members drew this class.
	Instances int `json:"instances"`
	// Checkpoints counts the class's processed (and predicted) stream.
	Checkpoints int64 `json:"checkpoints"`
	// Crashes and Rejuvenations count the class's outcomes.
	Crashes       int `json:"crashes"`
	Rejuvenations int `json:"rejuvenations"`
	// MAESec, SMAESec, PreMAESec and PostMAESec are the paper's accuracy
	// metrics of the on-line predictions against the analytic reference TTF
	// (current leak rates frozen, as in experiment 4.2).
	MAESec     float64 `json:"mae_sec"`
	SMAESec    float64 `json:"smae_sec"`
	PreMAESec  float64 `json:"pre_mae_sec"`
	PostMAESec float64 `json:"post_mae_sec"`
}

// EpochReport aggregates one model epoch of an adaptive fleet run: when it
// was published, what it was trained on, and how the predictions made under
// it scored against the frozen-rate reference TTF.
type EpochReport struct {
	// Epoch is the epoch sequence number (1 = the initial model).
	Epoch int `json:"epoch"`
	// PublishedAtSec is the simulated time the epoch went live (0 for the
	// initial epoch, which serves from the start).
	PublishedAtSec float64 `json:"published_at_sec"`
	// TrainedRuns is how many buffered labeled runs the epoch was trained on
	// (0 for the initial epoch); FreshRuns how many of those the fleet
	// collected on-line since the previous epoch.
	TrainedRuns int `json:"trained_runs"`
	FreshRuns   int `json:"fresh_runs"`
	// Checkpoints counts the predictions served under this epoch; MAESec is
	// their mean absolute error against the reference TTF.
	Checkpoints int64   `json:"checkpoints"`
	MAESec      float64 `json:"mae_sec"`
}

// Report is the outcome of one fleet run. It contains no wall-clock values:
// the same (seed, instances, duration) produces byte-identical JSON — and
// changing only the shard count changes nothing but the echoed Shards field
// — which the regression tests rely on.
type Report struct {
	Instances   int     `json:"instances"`
	Shards      int     `json:"shards"`
	Seed        uint64  `json:"seed"`
	DurationSec float64 `json:"duration_sec"`
	IntervalSec float64 `json:"interval_sec"`
	// Model describes the shared predictor.
	Model string `json:"model"`
	// Checkpoints is the total number of instance-checkpoints predicted.
	Checkpoints int64 `json:"checkpoints"`
	// Rejuvenations counts the controlled restarts; CrashesAvoided those
	// whose instance was genuinely on a crash trajectory (finite reference
	// TTF), FalseAlarms the rest.
	Rejuvenations  int `json:"rejuvenations"`
	CrashesAvoided int `json:"crashes_avoided"`
	FalseAlarms    int `json:"false_alarms"`
	// CrashesSuffered counts the instances that died before the controller
	// acted.
	CrashesSuffered int `json:"crashes_suffered"`
	// BudgetDenied counts alerts deferred because the rejuvenation budget
	// was exhausted; MaxConcurrentRejuvenations is the observed peak (never
	// above RejuvenationBudget).
	BudgetDenied               int64 `json:"budget_denied"`
	RejuvenationBudget         int   `json:"rejuvenation_budget"`
	MaxConcurrentRejuvenations int   `json:"max_concurrent_rejuvenations"`
	// DowntimeSec is total instance-seconds spent down; Availability is
	// 1 − downtime/(instances·duration).
	DowntimeSec  float64 `json:"downtime_sec"`
	Availability float64 `json:"availability"`
	// ServedRequests and LostRequests total the fleet's traffic; requests
	// offered while an instance is down are lost.
	ServedRequests float64 `json:"served_requests"`
	LostRequests   float64 `json:"lost_requests"`
	// Classes breaks the fleet down per instance class, in Class order.
	Classes []ClassReport `json:"classes"`
	// Adaptive says whether the run served adaptively; the remaining fields
	// are only set when it did. DriftTrips counts drift-detector trips,
	// Retrains the published epochs beyond the initial one, and Epochs the
	// per-epoch breakdown in publication order.
	Adaptive   bool          `json:"adaptive,omitempty"`
	DriftTrips int           `json:"drift_trips,omitempty"`
	Retrains   int           `json:"retrains,omitempty"`
	Epochs     []EpochReport `json:"epochs,omitempty"`
}

// JSON renders the report as deterministic, machine-readable JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the report for humans.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d instances, %d shards, %s simulated, seed %d\n",
		r.Instances, r.Shards, time.Duration(r.DurationSec*float64(time.Second)), r.Seed)
	fmt.Fprintf(&b, "  model: %s\n", r.Model)
	fmt.Fprintf(&b, "  checkpoints predicted: %d\n", r.Checkpoints)
	fmt.Fprintf(&b, "  rejuvenations: %d (%d crashes avoided, %d false alarms; budget %d, peak %d concurrent, %d alerts deferred)\n",
		r.Rejuvenations, r.CrashesAvoided, r.FalseAlarms, r.RejuvenationBudget, r.MaxConcurrentRejuvenations, r.BudgetDenied)
	fmt.Fprintf(&b, "  crashes suffered: %d\n", r.CrashesSuffered)
	fmt.Fprintf(&b, "  downtime: %s instance-time, availability %.4f%%\n",
		evalx.FormatDuration(r.DowntimeSec), 100*r.Availability)
	lostPct := 0.0
	if offered := r.ServedRequests + r.LostRequests; offered > 0 {
		lostPct = 100 * r.LostRequests / offered
	}
	fmt.Fprintf(&b, "  requests: %.0f served, %.0f lost (%.3f%%)\n",
		r.ServedRequests, r.LostRequests, lostPct)
	fmt.Fprintf(&b, "  %-12s %-10s %5s %9s %8s %6s %10s %10s %10s %10s\n",
		"class", "schema", "inst", "ckpts", "crashes", "rejuv", "MAE", "S-MAE", "PRE-MAE", "POST-MAE")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "  %-12s %-10s %5d %9d %8d %6d %10s %10s %10s %10s\n",
			c.Class, c.Schema, c.Instances, c.Checkpoints, c.Crashes, c.Rejuvenations,
			evalx.FormatDuration(c.MAESec), evalx.FormatDuration(c.SMAESec),
			evalx.FormatDuration(c.PreMAESec), evalx.FormatDuration(c.PostMAESec))
	}
	if r.Adaptive {
		fmt.Fprintf(&b, "  adaptive serving: %d drift trips, %d retrains\n", r.DriftTrips, r.Retrains)
		fmt.Fprintf(&b, "  %-6s %12s %12s %9s %10s\n", "epoch", "published", "trained-on", "ckpts", "MAE")
		for _, e := range r.Epochs {
			published := "start"
			if e.PublishedAtSec > 0 {
				published = evalx.FormatDuration(e.PublishedAtSec)
			}
			trained := "off-line"
			if e.TrainedRuns > 0 {
				trained = fmt.Sprintf("%d runs", e.TrainedRuns)
			}
			fmt.Fprintf(&b, "  %-6d %12s %12s %9d %10s\n",
				e.Epoch, published, trained, e.Checkpoints, evalx.FormatDuration(e.MAESec))
		}
	}
	return b.String()
}

// classStats accumulates accuracy sums online so the run never has to retain
// per-prediction slices (a simulated day over 1000 instances is millions of
// predictions).
type classStats struct {
	instances     int
	checkpoints   int64
	crashes       int
	rejuvenations int

	absSum, softSum float64
	n               int64
	preSum, postSum float64
	preN, postN     int64
}

// postWindowSec hoists the PRE/POST boundary out of the per-checkpoint
// accuracy accounting (Duration.Seconds costs two integer divisions).
var postWindowSec = evalx.DefaultPostWindow.Seconds()

// observe is evalx's AbsError/SoftAbsError accounting inlined for the
// per-checkpoint hot path; the sums it produces are bit-identical to the
// original Prediction-based formulation.
func (s *classStats) observe(refSec, predSec float64) {
	err := math.Abs(refSec - predSec)
	s.absSum += err
	s.n++
	if err > evalx.DefaultSecurityMargin*math.Abs(refSec) {
		s.softSum += err
	}
	if refSec <= postWindowSec {
		s.postSum += err
		s.postN++
	} else {
		s.preSum += err
		s.preN++
	}
}

func (s *classStats) report(class Class, schema string) ClassReport {
	rep := ClassReport{
		Class:         class.String(),
		Schema:        schema,
		Instances:     s.instances,
		Checkpoints:   s.checkpoints,
		Crashes:       s.crashes,
		Rejuvenations: s.rejuvenations,
	}
	if s.n > 0 {
		rep.MAESec = s.absSum / float64(s.n)
		rep.SMAESec = s.softSum / float64(s.n)
	}
	if s.preN > 0 {
		rep.PreMAESec = s.preSum / float64(s.preN)
	}
	if s.postN > 0 {
		rep.PostMAESec = s.postSum / float64(s.postN)
	}
	return rep
}

// Run executes one fleet serving run to completion and returns its report.
//
// The run proceeds in checkpoint-interval ticks, one barrier per tick: the
// shard workers step the instances they own (emitting each checkpoint into
// its pool slot), predict the live ones in batch, and report per-instance
// outcomes; after the barrier the driver — sequentially, in instance-ID
// order — folds the outcomes into the report and journal, feeds each
// prediction to the instance's predictive policy, and arbitrates the
// resulting alerts through the budgeted rejuvenation controller. Crashed
// instances recover after
// Config.CrashDowntime, rejuvenated ones after Config.RejuvenationDowntime;
// both come back with fresh aging state and a reset predictor window.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Resolve the per-class models: one shared base model plus one extra
	// training run per distinct override schema in ClassSchemas. Training
	// series are generated once and shared, and everything is deterministic
	// in the seed.
	var trainSeries []*monitor.Series
	trainOn := func(schema *features.Schema) (*core.Model, error) {
		if trainSeries == nil {
			var err error
			trainSeries, err = TrainingSeries(cfg.Seed)
			if err != nil {
				return nil, err
			}
		}
		return trainModelOn(trainSeries, schema)
	}

	base := cfg.Model
	model := "caller-supplied model"
	if base == nil {
		var err error
		base, err = trainOn(cfg.Schema)
		if err != nil {
			return nil, err
		}
		model = base.Report().String()
	}
	var classBase [numClasses]*core.Model
	for c := range classBase {
		classBase[c] = base
	}
	if len(cfg.ClassSchemas) > 0 {
		// Seed with the base model so an override naming the base's own
		// schema reuses it instead of retraining an identical model.
		bySchema := map[string]*core.Model{base.Schema().Name(): base}
		var overrides []string
		for c := Class(0); c < numClasses; c++ {
			schema := cfg.ClassSchemas[c]
			if schema == nil {
				continue
			}
			m, ok := bySchema[schema.Name()]
			if !ok {
				var err error
				m, err = trainOn(schema)
				if err != nil {
					return nil, fmt.Errorf("fleet: training %s model for class %s: %w", schema.Name(), c, err)
				}
				bySchema[schema.Name()] = m
			}
			classBase[c] = m
			overrides = append(overrides, fmt.Sprintf("%s=%s", c, schema.Name()))
		}
		if len(overrides) > 0 {
			model += "; class schemas: " + strings.Join(overrides, ", ")
		}
	}

	// Adaptive serving wraps the base model in a supervisor (seeded with the
	// fleet's own training series when the model was trained here, so a
	// retrain extends the coverage); frozen serving fans out plain sessions.
	var sup *adapt.Supervisor
	if cfg.Adaptive {
		acfg := cfg.Adapt
		if acfg.Seed == nil && trainSeries != nil {
			acfg.Seed = trainSeries
		}
		var err error
		sup, err = adapt.NewSupervisor(acfg, base)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		model += "; adaptive"
		// A retrain in flight when the run is cancelled or fails never
		// reaches its publish tick; join the background goroutine on every
		// return path instead of letting it outlive the run.
		defer sup.Discard()
	}

	specs := Specs(cfg.Seed, cfg.Instances)
	instances := make([]*instance, cfg.Instances)
	observers := make([]observer, cfg.Instances)
	var sessions []*core.Session
	var streams []*adapt.Stream
	if sup != nil {
		streams = make([]*adapt.Stream, cfg.Instances)
	} else {
		sessions = make([]*core.Session, cfg.Instances)
	}
	policies := make([]*rejuv.Predictive, cfg.Instances)
	for i, spec := range specs {
		instances[i] = newInstance(cfg.Seed, spec)
		if sup != nil {
			streams[i] = sup.NewStream(fmt.Sprintf("fleet/inst/%d", i))
			observers[i] = streams[i]
		} else {
			sessions[i] = classBase[spec.Class].NewSession()
			observers[i] = sessionObserver{sessions[i]}
		}
		policies[i] = &rejuv.Predictive{Threshold: cfg.TTFThreshold, Confirmations: cfg.Confirmations}
	}

	ctrl, err := rejuv.NewController(cfg.RejuvenationBudget)
	if err != nil {
		return nil, err
	}
	p := newPool(cfg.Shards, observers, instances, cfg.serialStep)
	defer p.close()

	dt := cfg.CheckpointInterval.Seconds()
	ticks := int(cfg.Duration / cfg.CheckpointInterval)
	if ticks == 0 {
		return nil, fmt.Errorf("fleet: duration %v is shorter than the %v checkpoint interval",
			cfg.Duration, cfg.CheckpointInterval)
	}
	rep := &Report{
		Instances: cfg.Instances,
		Shards:    cfg.Shards,
		Seed:      cfg.Seed,
		// Echo the simulated time actually served (whole ticks), so the
		// report's own downtime/availability arithmetic checks out even for
		// durations that are not a multiple of the interval.
		DurationSec:        float64(ticks) * dt,
		IntervalSec:        dt,
		Model:              model,
		RejuvenationBudget: cfg.RejuvenationBudget,
	}
	var stats [numClasses]classStats
	for _, spec := range specs {
		stats[spec.Class].instances++
	}
	horizon := monitor.InfiniteTTFSec * 0.999
	crashSec := cfg.CrashDowntime.Seconds()
	rejuvSec := cfg.RejuvenationDowntime.Seconds()

	// Adaptive bookkeeping: per-epoch accuracy aggregates (indexed by epoch
	// sequence − 1; entries appended as epochs publish) and the deterministic
	// publish schedule — a drift-triggered retrain starts at some tick and
	// its epoch goes live exactly retrainTicks later, however long the
	// background training really takes. A trigger whose publish tick lies
	// past the run's last tick starts nothing: that epoch could never serve.
	type epochAgg struct {
		publishedAtSec float64
		trainedRuns    int
		freshRuns      int
		checkpoints    int64
		absSum         float64
	}
	var epochAggs []epochAgg
	publishAt := -1
	retrainTicks := int(cfg.RetrainLatency / cfg.CheckpointInterval)
	if retrainTicks < 1 {
		retrainTicks = 1
	}
	if sup != nil {
		epochAggs = append(epochAggs, epochAgg{}) // epoch 1 serves from the start
	}

	cancelled := func() error {
		if cfg.Ctx == nil {
			return nil
		}
		return cfg.Ctx.Err()
	}

	// Journaling helpers. The journal is driven only from this goroutine, in
	// tick order; epochOf labels instance-scoped events with the model epoch
	// the instance is serving (always 1 in a frozen fleet). pollDrift turns
	// the supervisor's tripped/cleared state changes into journal events —
	// polling instead of hooking keeps the detector a pure state machine, and
	// is deterministic because only driver-called paths mutate it.
	jnl := cfg.Journal
	epochOf := func(i int) int {
		if streams != nil {
			return streams[i].Epoch()
		}
		return 1
	}
	prevDrifted := false
	pollDrift := func(t float64) {
		if sup == nil || jnl == nil {
			return
		}
		d := sup.Drifted()
		if d == prevDrifted {
			return
		}
		prevDrifted = d
		s := sup.Stats()
		typ := obs.EventDriftClear
		if d {
			typ = obs.EventDriftTrip
		}
		jnl.Emit(obs.Event{Type: typ, TimeSec: t, Instance: -1, Epoch: s.Epoch,
			Detail: fmt.Sprintf("window MAE %.3fs vs baseline %.3fs", s.WindowMAESec, s.BaselineMAESec)})
	}

	for tick := 1; tick <= ticks; tick++ {
		tickStart := time.Now()
		t := float64(tick) * dt
		if err := cancelled(); err != nil {
			return nil, fmt.Errorf("fleet: run cancelled at simulated %s: %w", evalx.FormatDuration(t), err)
		}

		// One-barrier tick: publish the tick's clock and wake each shard
		// once. The workers step their own instances (down instances are
		// charged their lost traffic in the same pass), stage the live
		// checkpoints into per-model batches, predict, record, and report
		// per-instance outcomes into the result slots. A cancellation
		// mid-flush is reported right after the barrier.
		p.tSec, p.dtSec = t, dt
		p.flush(cfg.Ctx)
		p.wait()
		if err := cancelled(); err != nil {
			return nil, fmt.Errorf("fleet: run cancelled at simulated %s: %w", evalx.FormatDuration(t), err)
		}

		// Merge pass, in instance-ID order: fold the workers' outcomes into
		// the report, the controller and the journal. Walking IDs 0..N-1
		// keeps every float accumulation and every journal record in exactly
		// the serial driver's order whatever shard produced it, and crash
		// bookkeeping only ever touches the crashing instance's own state,
		// so deferring it past the barrier changes no bits. The tick's crash
		// events must all precede its rejuvenation-alert events (as they did
		// when the serial driver crashed instances while stepping), which is
		// why the control pass below is a second walk.
		for i, in := range instances {
			switch res := &p.results[i]; res.kind {
			case resDown:
				rep.DowntimeSec += dt
				rep.LostRequests += res.flow
			case resCrashed:
				ctrl.Crash(i, t, crashSec)
				p.down[i] = true
				rep.CrashesSuffered++
				stats[in.spec.Class].crashes++
				mClassCrashes[in.spec.Class].Inc()
				jnl.Emit(obs.Event{Type: obs.EventInstanceCrash, TimeSec: t,
					Instance: i, Class: in.spec.Class.String(), Epoch: epochOf(i)})
				if streams != nil {
					// The crash resolves every pending prediction label of
					// the stream and donates the observed run-to-crash
					// execution to the supervisor's training buffer.
					streams[i].ResolveCrash(t)
				}
				// The crash interval itself served nothing: its offered
				// traffic is lost and its time is downtime, on top of the
				// recovery the controller just scheduled.
				rep.DowntimeSec += dt
				rep.LostRequests += res.flow
			default: // resServed
				rep.ServedRequests += res.flow
				rep.Checkpoints++
				stats[in.spec.Class].checkpoints++
			}
		}

		// Control pass, in instance-ID order: accuracy accounting, then the
		// per-instance policy, then the fleet-level budget arbitration.
		for i, in := range instances {
			res := &p.results[i]
			if res.kind != resServed {
				continue
			}
			if res.err != nil {
				return nil, fmt.Errorf("fleet: predicting instance %d at simulated %s: %w",
					i, evalx.FormatDuration(t), res.err)
			}
			st := &stats[in.spec.Class]
			st.observe(in.refTTFSec, res.ttfSec)
			if streams != nil {
				ea := &epochAggs[streams[i].Epoch()-1]
				ea.checkpoints++
				if d := res.ttfSec - in.refTTFSec; d >= 0 {
					ea.absSum += d
				} else {
					ea.absSum -= d
				}
			}
			if !policies[i].Decide(t, res.ttfSec) {
				continue
			}
			jnl.Emit(obs.Event{Type: obs.EventRejuvAlert, TimeSec: t,
				Instance: i, Class: in.spec.Class.String(), Epoch: epochOf(i)})
			if !ctrl.Alert(i, t, rejuvSec) {
				// The instance is healthy (we just stepped it), so a denial
				// is the budget: the policy stays primed and will re-raise.
				rep.BudgetDenied++
				mBudgetDenied.Inc()
				jnl.Emit(obs.Event{Type: obs.EventRejuvDenied, TimeSec: t,
					Instance: i, Class: in.spec.Class.String(), Epoch: epochOf(i)})
				continue
			}
			p.down[i] = true
			rep.Rejuvenations++
			st.rejuvenations++
			mClassRejuvs[in.spec.Class].Inc()
			jnl.Emit(obs.Event{Type: obs.EventRejuvDispatch, TimeSec: t,
				Instance: i, Class: in.spec.Class.String(), Epoch: epochOf(i)})
			if in.refTTFSec < horizon {
				rep.CrashesAvoided++
			} else {
				rep.FalseAlarms++
			}
		}

		// Finished downtimes, at the end of the tick so every outage is
		// charged for each interval it overlaps (an instance released here
		// resumes serving on the next tick). The instance returns with a
		// fresh JVM, a fresh prediction window and a reset policy — and, in
		// an adaptive fleet, on the current model epoch: the reset boundary
		// is where a hot-swapped model reaches live serving.
		for _, comp := range ctrl.AdvanceDetailed(t) {
			id := comp.ID
			p.down[id] = false
			instances[id].reset()
			prevEpoch := 0
			if streams != nil {
				prevEpoch = streams[id].Epoch()
				streams[id].Reset()
			} else {
				sessions[id].Reset()
			}
			policies[id].Reset()
			typ := obs.EventRejuvComplete
			if comp.Was == rejuv.StateCrashed {
				typ = obs.EventCrashRecovered
			}
			class := instances[id].spec.Class.String()
			jnl.Emit(obs.Event{Type: typ, TimeSec: t,
				Instance: id, Class: class, Epoch: epochOf(id)})
			if streams != nil && streams[id].Epoch() != prevEpoch {
				// The reset boundary is where a hot-swapped model reaches live
				// serving; journal which instance moved to which epoch.
				jnl.Emit(obs.Event{Type: obs.EventEpochSwap, TimeSec: t,
					Instance: id, Class: class, Epoch: streams[id].Epoch(),
					Detail: fmt.Sprintf("from epoch %d", prevEpoch)})
			}
		}

		// Adaptive supervision, after the control pass so a tick's crashes
		// have already fed the detector and the buffer. Both the retrain
		// trigger and the publish tick are pure functions of the simulated
		// run, so the whole adaptive trajectory is deterministic; only the
		// background training work overlaps with the following ticks.
		if sup != nil {
			pollDrift(t)
			if publishAt < 0 && tick+retrainTicks <= ticks && sup.StartRetrain() {
				publishAt = tick + retrainTicks
				if jnl != nil {
					s := sup.Stats()
					jnl.Emit(obs.Event{Type: obs.EventRetrainStart, TimeSec: t,
						Instance: -1, Epoch: s.Epoch,
						Detail: fmt.Sprintf("%d buffered runs", s.BufferedRuns)})
				}
			}
			if publishAt >= 0 && tick >= publishAt {
				publishAt = -1
				if sup.Publish() {
					cur := sup.Current()
					epochAggs = append(epochAggs, epochAgg{
						publishedAtSec: t,
						trainedRuns:    cur.TrainedRuns,
						freshRuns:      cur.FreshRuns,
					})
					jnl.Emit(obs.Event{Type: obs.EventRetrainPublish, TimeSec: t,
						Instance: -1, Epoch: cur.Seq,
						Detail: fmt.Sprintf("trained on %d runs (%d fresh)", cur.TrainedRuns, cur.FreshRuns)})
					// The publish rebaselines the detector, so the matching
					// drift_clear lands at this very tick, after the publish.
					pollDrift(t)
				} else if err := sup.Err(); err != nil {
					return nil, fmt.Errorf("fleet: %w", err)
				}
			}
		}

		// Tick bookkeeping for the exposition layer: everything here reflects
		// the simulated run (and is never read back), except the tick-latency
		// histogram, which is the one place wall-clock time flows into.
		staged := 0
		for _, n := range p.staged {
			staged += n
		}
		mTicks.Inc()
		mCheckpoints.Add(uint64(staged))
		mQueueDepth.Set(float64(staged))
		mSimTime.Set(t)
		mInstancesDown.Set(float64(ctrl.Down()))
		mTickLatency.Observe(time.Since(tickStart).Seconds())
	}

	rep.MaxConcurrentRejuvenations = ctrl.MaxInFlight()
	rep.Availability = 1
	if total := float64(cfg.Instances) * float64(ticks) * dt; total > 0 {
		rep.Availability = 1 - rep.DowntimeSec/total
	}
	for c := Class(0); c < numClasses; c++ {
		if stats[c].instances == 0 {
			continue
		}
		rep.Classes = append(rep.Classes, stats[c].report(c, classBase[c].Schema().Name()))
	}
	if sup != nil {
		s := sup.Stats()
		rep.Adaptive = true
		rep.DriftTrips = s.Trips
		rep.Retrains = s.Retrains
		for i, ea := range epochAggs {
			er := EpochReport{
				Epoch:          i + 1,
				PublishedAtSec: ea.publishedAtSec,
				TrainedRuns:    ea.trainedRuns,
				FreshRuns:      ea.freshRuns,
				Checkpoints:    ea.checkpoints,
			}
			if ea.checkpoints > 0 {
				er.MAESec = ea.absSum / float64(ea.checkpoints)
			}
			rep.Epochs = append(rep.Epochs, er)
		}
	}
	return rep, nil
}
