package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"agingpred/internal/adapt"
	"agingpred/internal/core"
	"agingpred/internal/fleet"
	"agingpred/internal/m5p"
	"agingpred/internal/monitor"
)

// The fleet workloads serve the README's production-shaped population: 1000
// instances, whose per-instance state does not fit in cache. A measurement
// cycles through a few populations drawn from the seed so that one
// population's luck (how many of its instances crash, how long the crashed
// runs a retrain learns from are) does not decide the figure.
const (
	fleetInstances = 1000
	// A fleet-frozen run serves 8 simulated hours; a measurement cycles
	// through 3 populations.
	frozenDuration    = 8 * time.Hour
	frozenPopulations = 3
	// A fleet-adaptive run serves 1 simulated hour, in which the first
	// epoch is published after 0.5 to 0.7 h and 2 to 4 retrains land (80
	// populations tried). Retrains dominate its wall time, and how many
	// land and on how many runs varies from population to population by a
	// quarter, so a measurement cycles through 12 populations.
	adaptiveDuration    = time.Hour
	adaptivePopulations = 12
	// trainingSeed fixes the training executions of the shared model. A
	// model trained per seed changes the fleet's crash dynamics by an order
	// of magnitude (6 to 797 crashes in the first 4 h over 14 seeds), so the
	// seed draws the population and the model stays put.
	trainingSeed = 1
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 5
	// reconDuration is the simulated time of one pass of the traced
	// reconstruction of the fleet's shard loop.
	reconDuration = 4 * time.Hour
)

// adaptConfig is the adaptive loop of fleet-adaptive: the defaults, but for
// the detector's baseline. Under the default detector the retrain count of a
// 1000-instance day ranges from 0 to 12 across seeds, and at seed 1 the first
// epoch is published after 19.2 simulated hours. Pinning the baseline far
// below any real error makes every resolved window read as drift, so a
// retrain starts as soon as labels arrive and the next one when the previous
// epoch is published, the default RetrainLatency of 10 simulated minutes
// later. The buffer, seeded with the model's training runs, keeps its
// default bound.
func adaptConfig(series []*monitor.Series) adapt.Config {
	return adapt.Config{
		Seed:     series,
		Detector: adapt.DetectorConfig{BaselineSec: 1},
	}
}

// popSeed derives the seed of population j of a measurement.
func popSeed(seed uint64, j int) uint64 {
	return seed + uint64(j)*0x9E3779B97F4A7C15
}

// fleetSetup is what the fleet workloads build before timing starts.
type fleetSetup struct {
	model       *core.Model
	series      []*monitor.Series
	adaptive    bool
	duration    time.Duration // simulated time of one run
	populations int           // populations a measurement cycles through
}

func (su fleetSetup) config(seed uint64, shards int) fleet.Config {
	cfg := fleet.Config{
		Instances: fleetInstances,
		Duration:  su.duration,
		Seed:      seed,
		Shards:    shards,
		Model:     su.model,
	}
	if su.adaptive {
		cfg.Adaptive = true
		cfg.Adapt = adaptConfig(su.series)
	}
	return cfg
}

// tickClock is handed to fleet.Config.Ctx. fleet.Run polls Err between
// ticks — a fixed number of times per tick — so the poll times delimit the
// ticks from outside the driver.
type tickClock struct {
	context.Context
	polls []time.Time
}

func newTickClock(ticks int) *tickClock {
	return &tickClock{Context: context.Background(), polls: make([]time.Time, 0, 4*ticks+8)}
}

func (c *tickClock) Err() error {
	c.polls = append(c.polls, time.Now())
	return nil
}

// latencies returns the wall time of every tick but the last (whose end is
// not polled), in microseconds.
func (c *tickClock) latencies(ticks int) ([]float64, error) {
	k := len(c.polls) / ticks
	if k == 0 || len(c.polls) != k*ticks {
		return nil, fmt.Errorf("fleet.Run polled its context %d times over %d ticks", len(c.polls), ticks)
	}
	lat := make([]float64, 0, ticks-1)
	for i := 0; i+1 < ticks; i++ {
		lat = append(lat, float64(c.polls[(i+1)*k].Sub(c.polls[i*k]).Nanoseconds())/1e3)
	}
	return lat, nil
}

// reportKey renders a report for comparison, without the echoed shard count.
func reportKey(rep *fleet.Report) (string, error) {
	r := *rep
	r.Shards = 0
	b, err := r.JSON()
	return string(b), err
}

// fleetTimed is the outcome of the timed fleet.Run calls of a measurement.
// Throughput is the checkpoints of all runs over their wall time: an
// adaptive run's rate depends on whether two or three retrains land in its
// hour, and a median over such a two-humped set jumps between the humps
// where the total does not. Each run yields its tick latency percentiles
// (p99 of a frozen run's 1919 ticks has 19 beyond it, of an adaptive run's
// 239 ticks 2); those metrics are their medians over the runs.
type fleetTimed struct {
	cps     int64
	wall    time.Duration
	cpu     time.Duration
	runs    int
	lat     map[string][]float64 // per run, tick latency percentiles in µs
	samples int                  // tick latencies measured
	first   *fleet.Report        // the first population's report
	keys    map[int][]string     // per population: the report of each run
}

// throughput is the instance-checkpoints served per second of wall time.
func (ft *fleetTimed) throughput() float64 { return float64(ft.cps) / ft.wall.Seconds() }

// timeFleet cycles over the populations, one run each in turn, until every
// population has run once and budget has passed.
func timeFleet(su fleetSetup, seed uint64, budget time.Duration) (*fleetTimed, error) {
	ft := &fleetTimed{keys: map[int][]string{}, lat: map[string][]float64{}}
	ticks := int(su.duration / monitor.DefaultInterval)
	begin := time.Now()
	for n := 0; n < su.populations || time.Since(begin) < budget; n++ {
		j := n % su.populations
		cfg := su.config(popSeed(seed, j), 0)
		clock := newTickClock(ticks)
		cfg.Ctx = clock
		runtime.GC()
		cpu0, start := selfCPU(), time.Now()
		rep, err := fleet.Run(cfg)
		wall, cpu := time.Since(start), selfCPU()-cpu0
		if err != nil {
			return nil, fmt.Errorf("fleet run, population %d: %w", j, err)
		}
		lat, err := clock.latencies(ticks)
		if err != nil {
			return nil, err
		}
		key, err := reportKey(rep)
		if err != nil {
			return nil, err
		}
		ft.cps += rep.Checkpoints
		ft.wall += wall
		ft.cpu += cpu
		ft.runs++
		ft.samples += len(lat)
		for _, lq := range latencyQuantiles {
			ft.lat[lq.name] = append(ft.lat[lq.name], quantile(lat, lq.q))
		}
		if j == 0 {
			ft.first = rep
		}
		ft.keys[j] = append(ft.keys[j], key)
		fmt.Fprintf(os.Stderr, "perfbench: population %d: %d checkpoints in %.3fs (%.0f cp/s), %d crashes, %d retrains\n",
			j, rep.Checkpoints, wall.Seconds(), float64(rep.Checkpoints)/wall.Seconds(), rep.CrashesSuffered, rep.Retrains)
	}
	return ft, nil
}

// checkFleet compares every timed run with a 1-shard run of its population:
// the reports must be identical apart from the shard count. Adaptive runs
// must also have retrained at least once.
func checkFleet(out *outcome, su fleetSetup, seed uint64, ft *fleetTimed) error {
	// The reference runs are not timed and keep one CPU busy each, so
	// GOMAXPROCS of them run at once.
	refs := make([]*fleet.Report, su.populations)
	errs := make([]error, su.populations)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for j := range refs {
		if len(ft.keys[j]) == 0 {
			continue
		}
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			refs[j], errs[j] = fleet.Run(su.config(popSeed(seed, j), 1))
		}()
	}
	wg.Wait()
	for j, ref := range refs {
		if errs[j] != nil {
			return fmt.Errorf("1-shard reference run, population %d: %w", j, errs[j])
		}
		if ref == nil {
			continue
		}
		keys := ft.keys[j]
		want, err := reportKey(ref)
		if err != nil {
			return err
		}
		for i, key := range keys {
			if key != want {
				out.fail(ref.Checkpoints, "population %d run %d: report differs from the 1-shard run", j, i)
			}
		}
		if su.adaptive && ref.Retrains < 1 {
			out.fail(ref.Checkpoints*int64(len(keys)), "population %d: no retrain in %v", j, su.duration)
		}
	}
	return nil
}

func runFleet(opts options, adaptive bool) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	su := fleetSetup{adaptive: adaptive, duration: frozenDuration, populations: frozenPopulations}
	if adaptive {
		su.duration, su.populations = adaptiveDuration, adaptivePopulations
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		series, err := fleet.TrainingSeries(trainingSeed)
		if err != nil {
			return nil, err
		}
		// core.Train on the zero Config is exactly fleet.TrainModel.
		model, err := core.Train(core.Config{}, series)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		su.model, su.series = model, series
	}

	budget := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		// The traced run shares its time between the untraced fleet runs
		// the residual is taken against and the reconstruction passes.
		budget /= 2
	}
	ft, err := timeFleet(su, opts.seed, budget)
	if err != nil {
		return nil, err
	}
	out.attempted = ft.cps
	// Peak RSS is read before the check, whose reference runs overlap.
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	if err := checkFleet(out, su, opts.seed, ft); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d fleet runs, %d tick latency samples\n", ft.runs, ft.samples)
	m := out.metrics
	for name, xs := range ft.lat {
		m[name] = median(xs)
	}
	if !opts.trace {
		m["setup_s"] = median(setups)
		m["throughput_cps"] = ft.throughput()
		m["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
		m["peak_rss_mb"] = rss
		return out, nil
	}

	rep := ft.first
	m["fleet.checkpoints"] = float64(rep.Checkpoints)
	m["fleet.crashes"] = float64(rep.CrashesSuffered)
	m["fleet.rejuvenations"] = float64(rep.Rejuvenations)
	m["adapt.retrains"] = float64(rep.Retrains)
	m["bench.latency_samples"] = float64(ft.samples)
	m["fleet.cpu_util"] = ft.cpu.Seconds() / ft.wall.Seconds()

	shards := runtime.GOMAXPROCS(0) // fleet.Config's default shard count
	tr, overhead, cps, err := traceRecon(su, popSeed(opts.seed, 0), shards)
	if err != nil {
		return nil, err
	}
	out.trace = tr
	m["bench.trace_overhead_frac"] = overhead
	m["fleet.step_ns"] = tr.perOp("fleet.step")
	m["features.extract_ns"] = tr.perOp("features.extract")
	m["m5p.eval_ns"] = tr.perOp("m5p.eval")
	m["adapt.record_ns"] = tr.perOp("adapt.record")
	m["adapt.resolve_ns"] = tr.perOp("adapt.resolve")
	// The layers run on every shard at once, so their share of the wall
	// time per checkpoint is their thread time divided by the shard count.
	var layers time.Duration
	for _, name := range []string{"fleet.step", "features.extract", "m5p.eval", "adapt.record", "adapt.resolve"} {
		d, _ := tr.self(name)
		layers += d
	}
	e2eNs := 1e9 / ft.throughput()
	m["fleet.driver_ns"] = e2eNs - float64(layers.Nanoseconds())/float64(cps)/float64(shards)

	if adaptive {
		if err := traceTraining(m, su, popSeed(opts.seed, 0), rep); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// recon re-drives the fleet's shard loop from outside the driver through the
// exported calls of each layer: fleet.Replay.Step (simulator),
// core.Batch.Stage (feature extraction), core.Batch.Predict (tree
// evaluation) and, when adaptive, adapt.Stream.Record and ResolveCrash.
// Shards step their instances in parallel with a barrier per tick, as the
// fleet's do. It leaves out what only the driver does — downtime,
// rejuvenation, merge, retrains — which is the residual fleet.driver_ns.
type recon struct {
	replays  []*fleet.Replay
	sessions []*core.Session
	streams  []*adapt.Stream
	cps      []monitor.Checkpoint
	shards   []*reconShard
	driver   *lane
}

type reconShard struct {
	ids         []int
	staged      []int
	batch       *core.Batch
	lane        *lane
	checkpoints int
	err         error
}

func newRecon(su fleetSetup, seed uint64, shards int, tr *tracer) (*recon, error) {
	specs := fleet.Specs(seed, fleetInstances)
	r := &recon{
		replays: make([]*fleet.Replay, len(specs)),
		cps:     make([]monitor.Checkpoint, len(specs)),
		shards:  make([]*reconShard, shards),
	}
	var sup *adapt.Supervisor
	if su.adaptive {
		var err error
		if sup, err = adapt.NewSupervisor(adaptConfig(su.series), su.model); err != nil {
			return nil, err
		}
		r.streams = make([]*adapt.Stream, len(specs))
	} else {
		r.sessions = make([]*core.Session, len(specs))
	}
	for s := range r.shards {
		r.shards[s] = &reconShard{batch: su.model.NewBatch(len(specs)/shards + 1)}
		if tr != nil {
			r.shards[s].lane = tr.lane()
		}
	}
	if tr != nil {
		r.driver = tr.lane()
	}
	for i, spec := range specs {
		r.replays[i] = fleet.NewReplay(seed, spec)
		if sup != nil {
			r.streams[i] = sup.NewStream(fmt.Sprintf("fleet/inst/%d", i))
		} else {
			r.sessions[i] = su.model.NewSession()
		}
		sh := r.shards[i%shards]
		sh.ids = append(sh.ids, i)
	}
	return r, nil
}

func (r *recon) session(id int) *core.Session {
	if r.streams != nil {
		return r.streams[id].Session()
	}
	return r.sessions[id]
}

// shardTick steps, stages, predicts and records one shard's instances.
func (r *recon) shardTick(sh *reconShard, parent uint64) {
	l := sh.lane
	h := l.open("fleet.step", parent)
	sh.staged = sh.staged[:0]
	for _, id := range sh.ids {
		rp := r.replays[id]
		if !rp.Step(&r.cps[id]) {
			sh.staged = append(sh.staged, id)
			continue
		}
		// A crash: resolve the stream's labels, restart the instance and
		// start a fresh stream, as crash recovery does.
		if r.streams != nil {
			hr := l.open("adapt.resolve", l.idOf(h))
			r.streams[id].ResolveCrash(rp.TimeSec())
			l.close(hr, 1)
			r.streams[id].Reset()
		} else {
			r.sessions[id].Reset()
		}
		rp.Restart()
	}
	l.close(h, len(sh.ids))

	h = l.open("features.extract", parent)
	sh.batch.Reset()
	for _, id := range sh.staged {
		if err := sh.batch.Stage(r.session(id), &r.cps[id]); err != nil && sh.err == nil {
			sh.err = err
		}
	}
	l.close(h, len(sh.staged))

	h = l.open("m5p.eval", parent)
	preds, err := sh.batch.Predict()
	l.close(h, len(sh.staged))
	if err != nil {
		sh.err = err
		return
	}
	if r.streams != nil {
		h = l.open("adapt.record", parent)
		for k, id := range sh.staged {
			r.streams[id].Record(&r.cps[id], preds[k])
		}
		l.close(h, len(sh.staged))
	}
	sh.checkpoints += len(sh.staged)
}

// run drives ticks ticks with one worker goroutine per shard and returns the
// wall time and the checkpoints predicted.
func (r *recon) run(ticks int) (time.Duration, int, error) {
	var wg sync.WaitGroup
	starts := make([]chan uint64, len(r.shards))
	done := make(chan struct{}, len(r.shards))
	for s, sh := range r.shards {
		starts[s] = make(chan uint64, 1)
		wg.Add(1)
		go func(sh *reconShard, start <-chan uint64) {
			defer wg.Done()
			for parent := range start {
				r.shardTick(sh, parent)
				done <- struct{}{}
			}
		}(sh, starts[s])
	}
	begin := time.Now()
	for t := 0; t < ticks; t++ {
		h := r.driver.open("fleet.tick", 0)
		for _, ch := range starts {
			ch <- r.driver.idOf(h)
		}
		for range r.shards {
			<-done
		}
		r.driver.close(h, fleetInstances)
	}
	wall := time.Since(begin)
	for _, ch := range starts {
		close(ch)
	}
	wg.Wait()
	cps := 0
	for _, sh := range r.shards {
		if sh.err != nil {
			return 0, 0, sh.err
		}
		cps += sh.checkpoints
	}
	return wall, cps, nil
}

// traceRecon runs the reconstruction three times untraced and three times
// traced, alternating, and returns the trace of the last traced pass, the
// tracing overhead (median traced wall over median untraced wall, minus one)
// and the checkpoints that pass predicted.
func traceRecon(su fleetSetup, seed uint64, shards int) (*tracer, float64, int, error) {
	ticks := int(reconDuration / monitor.DefaultInterval)
	var (
		plain, traced []float64
		last          *tracer
		lastCps       int
	)
	for pass := 0; pass < 6; pass++ {
		var tr *tracer
		if pass%2 == 1 {
			tr = newTracer()
		}
		r, err := newRecon(su, seed, shards, tr)
		if err != nil {
			return nil, 0, 0, err
		}
		runtime.GC()
		wall, cps, err := r.run(ticks)
		if err != nil {
			return nil, 0, 0, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: reconstruction pass %d (traced %v): %d checkpoints in %.3fs\n", pass, tr != nil, cps, wall.Seconds())
		if tr == nil {
			plain = append(plain, wall.Seconds())
		} else {
			traced = append(traced, wall.Seconds())
			last, lastCps = tr, cps
		}
	}
	return last, median(traced)/median(plain) - 1, lastCps, nil
}

// traceTraining times core.Train over a training buffer of the workload's
// retrain size, and its two halves, features.Schema.ExtractAll and m5p.Fit,
// on their own. The buffer holds the population's own run-to-crash
// executions, labelled as adapt.Stream labels the runs it collects. Each is
// timed three times; the medians are reported.
func traceTraining(m map[string]float64, su fleetSetup, seed uint64, rep *fleet.Report) error {
	size := 0
	if n := len(rep.Epochs); n > 0 {
		size = rep.Epochs[n-1].TrainedRuns
	}
	if size == 0 {
		return fmt.Errorf("adaptive run published no retrained epoch")
	}
	buf := crashRuns(seed, size)
	cfg := su.model.Config()
	var trains, extracts, fits []float64
	rows := 0
	for i := 0; i < 3; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := core.Train(cfg, buf); err != nil {
			return err
		}
		trains = append(trains, time.Since(start).Seconds())

		start = time.Now()
		ds, err := cfg.Schema.ExtractAll("training", buf)
		if err != nil {
			return err
		}
		extracts = append(extracts, time.Since(start).Seconds())
		rows = ds.Len()

		start = time.Now()
		if _, err := m5p.Fit(ds, m5pOptions(cfg)); err != nil {
			return err
		}
		fits = append(fits, time.Since(start).Seconds())
	}
	m["core.train_s"] = median(trains)
	m["features.extract_all_s"] = median(extracts)
	m["m5p.fit_s"] = median(fits)
	m["core.train_rows"] = float64(rows)
	return nil
}

// m5pOptions are the options core.Train fits an M5P model with.
func m5pOptions(cfg core.Config) m5p.Options {
	return m5p.Options{
		MinInstances: cfg.MinLeafInstances,
		Unpruned:     cfg.Unpruned,
		NoSmoothing:  cfg.NoSmoothing,
		LeafMaxAttrs: cfg.LeafMaxAttrs,
	}
}

// crashRuns replays the population's instances from a fresh start until n
// of them have crashed (each within 8 simulated hours) and returns those runs
// labelled with their time to failure.
func crashRuns(seed uint64, n int) []*monitor.Series {
	var runs []*monitor.Series
	ticks := int(8 * time.Hour / monitor.DefaultInterval)
	for _, spec := range fleet.Specs(seed, fleetInstances) {
		rp := fleet.NewReplay(seed, spec)
		s := &monitor.Series{Name: fmt.Sprintf("run-%d", spec.ID), IntervalSec: rp.IntervalSec()}
		var cp monitor.Checkpoint
		for t := 0; t < ticks; t++ {
			if rp.Step(&cp) {
				s.Crashed, s.CrashTimeSec = true, rp.TimeSec()
				break
			}
			s.Checkpoints = append(s.Checkpoints, cp)
		}
		if !s.Crashed || len(s.Checkpoints) < 2 {
			continue
		}
		for i := range s.Checkpoints {
			s.Checkpoints[i].TTFSec = s.CrashTimeSec - s.Checkpoints[i].TimeSec
		}
		if runs = append(runs, s); len(runs) == n {
			break
		}
	}
	return runs
}
