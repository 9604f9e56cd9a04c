package fleet

import (
	"fmt"
	"math"
	"strings"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/features"
	"agingpred/internal/injector"
	"agingpred/internal/monitor"
	"agingpred/internal/rng"
)

// Class buckets the heterogeneous instance population by the kind of aging
// fault it carries; the fleet report breaks prediction accuracy and
// crash/rejuvenation counts down per class.
type Class int

const (
	// ClassHealthy instances carry no aging fault at all.
	ClassHealthy Class = iota
	// ClassMemLeak instances leak memory through the request-coupled search
	// servlet fault (the paper's deterministic-aging scenario).
	ClassMemLeak
	// ClassThreadLeak instances leak threads on the time-coupled fault.
	ClassThreadLeak
	// ClassConnLeak instances leak database connections.
	ClassConnLeak
	// ClassCombined instances age through memory and threads at once
	// (experiment 4.4's two-resource scenario).
	ClassCombined

	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassHealthy:
		return "healthy"
	case ClassMemLeak:
		return "mem-leak"
	case ClassThreadLeak:
		return "thread-leak"
	case ClassConnLeak:
		return "conn-leak"
	case ClassCombined:
		return "combined"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ClassNames returns the class names in Class order, for CLI help and
// fail-fast error messages.
func ClassNames() []string {
	names := make([]string, numClasses)
	for c := Class(0); c < numClasses; c++ {
		names[c] = c.String()
	}
	return names
}

// ParseClass resolves a class name ("conn-leak", ...); the error for an
// unknown name lists every valid one.
func ParseClass(name string) (Class, error) {
	for c := Class(0); c < numClasses; c++ {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fleet: unknown instance class %q (known: %s)",
		name, strings.Join(ClassNames(), ", "))
}

// InstanceSpec is the static description of one simulated application-server
// instance: its aging profile, workload level and workload phase. Specs are
// drawn deterministically from the fleet seed, so the same seed always yields
// the same heterogeneous population.
type InstanceSpec struct {
	// ID is the instance's position in the fleet (0-based). It also drives
	// the consistent instance→shard assignment.
	ID int
	// Class is the aging-fault bucket the profile was drawn from.
	Class Class
	// Profile is the per-instance aging parameterisation. Replaying it
	// through testbed.ProfileRunConfig reproduces the instance as a
	// full-fidelity single-server execution.
	Profile injector.Profile
	// EBs is the instance's mean workload (emulated browsers).
	EBs int
	// AmpFrac, PeriodSec and OffsetSec shape the instance's diurnal-style
	// load oscillation: active load = EBs·(1 + AmpFrac·sin(2π(t+Offset)/Period)).
	AmpFrac   float64
	PeriodSec float64
	OffsetSec float64
}

// Capacity constants of one simulated instance, mirroring the defaults of
// internal/appserver and internal/jvm (1 GB heap with 128 MB young and 64 MB
// perm zones, 1024-thread process limit, 100-connection MySQL pool).
const (
	oldMaxMB    = 832.0 // 1024 heap − 128 young − 64 perm
	youngMaxMB  = 128.0
	oldBaseMB   = 140.0 // steady-state old-gen footprint without a leak
	maxThreads  = 1024.0
	baseThreads = 45.0
	maxDBConns  = 100.0

	// thinkTimeSec is the TPC-W mean think time driving throughput ≈
	// EBs/(think+response); searchFrac is the search-interaction share of
	// the shopping mix, which couples the memory fault to the workload.
	thinkTimeSec = 7.0
	searchFrac   = 0.2
	baseRespSec  = 0.08

	// jvmBaseMB is the non-old, non-young process memory from the OS
	// perspective (perm zone, process base); stackMBPerThread charges native
	// stacks, as internal/jvm does.
	jvmBaseMB        = 214.0 // 64 perm + 150 process base
	stackMBPerThread = 0.5
	otherProcsMB     = 450.0
	swapMB           = 2048.0
	baseProcesses    = 115.0
	diskBaseMB       = 12000.0
	logMBPerRequest  = 0.002
)

// class mix of a fleet population, in Class order (healthy, mem, thread,
// conn, combined). Roughly a quarter of the fleet is healthy so false alarms
// have something to fire on.
var classWeights = [numClasses]float64{0.25, 0.30, 0.20, 0.15, 0.10}

// Specs draws the heterogeneous instance population of a fleet of n servers
// deterministically from the seed: per-instance class, aging rates, workload
// level and load-oscillation phase. Instance i's spec depends only on (seed,
// i), so growing the fleet keeps the existing instances' behaviour identical.
func Specs(seed uint64, n int) []InstanceSpec {
	specs := make([]InstanceSpec, n)
	for i := range specs {
		src := rng.NewNamed(seed, fmt.Sprintf("fleet/spec/%d", i))
		spec := InstanceSpec{ID: i}
		r := src.Float64()
		acc := 0.0
		for c := Class(0); c < numClasses; c++ {
			acc += classWeights[c]
			if r < acc || c == numClasses-1 {
				spec.Class = c
				break
			}
		}
		spec.EBs = src.IntBetween(40, 180)
		spec.AmpFrac = 0.2
		spec.PeriodSec = src.Float64Between(2400, 4800)
		spec.OffsetSec = src.Float64Between(0, spec.PeriodSec)
		spec.Profile = drawProfile(spec.Class, src)
		specs[i] = spec
	}
	return specs
}

// drawProfile draws the heterogeneous aging rates of one instance.
func drawProfile(c Class, src *rng.Source) injector.Profile {
	switch c {
	case ClassMemLeak:
		return injector.Profile{MemoryN: src.IntBetween(15, 60), LeakMB: 1}
	case ClassThreadLeak:
		return injector.Profile{ThreadM: src.IntBetween(4, 10), ThreadT: src.IntBetween(30, 60)}
	case ClassConnLeak:
		return injector.Profile{ConnC: src.IntBetween(2, 6), ConnT: src.IntBetween(60, 120)}
	case ClassCombined:
		return injector.Profile{
			MemoryN: src.IntBetween(30, 80), LeakMB: 1,
			ThreadM: src.IntBetween(2, 5), ThreadT: src.IntBetween(60, 120),
		}
	default:
		return injector.Profile{}
	}
}

// instance is the live state of one simulated server. The model is
// deliberately phenomenological and cheap — a fleet of thousands must step in
// wall-clock milliseconds per simulated tick — but it emits the same Table 2
// checkpoint schema as the full testbed, with the same leak-rate semantics as
// the real injectors (injector.Profile's expected rates), so the Table 2
// feature pipeline and the M5P predictor run on it unchanged.
type instance struct {
	spec InstanceSpec
	src  *rng.Source

	// Loop-invariant per-spec values, hoisted once at newInstance time so
	// step calls no injector.Profile methods and redoes no spec arithmetic.
	// Each holds exactly the value the method returns; the profile methods
	// return exactly 0 for an absent fault.
	ebsF      float64 // float64(spec.EBs)
	memPerHit float64 // spec.Profile.MemoryMBPerHit()
	thrRate   float64 // spec.Profile.ThreadsPerSec()
	connRate  float64 // spec.Profile.ConnsPerSec()

	// aging state (reset by rejuvenation/recovery)
	oldUsedMB   float64
	leakThreads float64
	leakConns   float64

	// diskMB survives restarts: access logs are not truncated.
	diskMB float64

	// values from the latest step, read by the controller.
	refTTFSec float64
	thr       float64
}

// newInstance creates the live instance for a spec. The per-instance random
// stream depends only on (seed, ID), keeping every instance's trajectory
// independent of fleet size, shard count and the fate of its neighbours.
func newInstance(seed uint64, spec InstanceSpec) *instance {
	in := &instance{
		spec:      spec,
		src:       rng.NewNamed(seed, fmt.Sprintf("fleet/inst/%d", spec.ID)),
		diskMB:    diskBaseMB,
		ebsF:      float64(spec.EBs),
		memPerHit: spec.Profile.MemoryMBPerHit(),
		thrRate:   spec.Profile.ThreadsPerSec(),
		connRate:  spec.Profile.ConnsPerSec(),
	}
	in.reset()
	return in
}

// reset clears the aging state, as a rejuvenation (or crash recovery) does:
// the JVM restarts with a fresh heap, thread set and connection pool.
func (in *instance) reset() {
	in.oldUsedMB = oldBaseMB
	in.leakThreads = 0
	in.leakConns = 0
	in.refTTFSec = monitor.InfiniteTTFSec
}

// activeEBs is the instance's oscillating load at time t. Pure function of
// (spec, t): it draws no randomness, so it is also usable while the instance
// is down to estimate the traffic being turned away.
func (in *instance) activeEBs(tSec float64) float64 {
	s := &in.spec
	return in.ebsF * (1 + s.AmpFrac*math.Sin(2*math.Pi*(tSec+s.OffsetSec)/s.PeriodSec))
}

// expectedThroughput estimates the request rate the instance would serve at
// time t if it were healthy — the rate its users keep offering while it is
// down, i.e. the lost-request rate. No randomness.
func (in *instance) expectedThroughput(tSec float64) float64 {
	return in.activeEBs(tSec) / (thinkTimeSec + baseRespSec)
}

// step advances the instance by one checkpoint interval ending at tSec and
// writes the monitored checkpoint into *cp, or returns crashed=true (leaving
// *cp untouched) when a resource ran out during the interval. The out
// parameter lets the shard workers step straight into the prediction pool's
// per-instance slot instead of copying the 20-field checkpoint twice per
// tick. All randomness comes from the instance's own stream (which keeps its
// position across resets), so the whole trajectory is a pure function of
// (seed, spec, sequence of step calls) — independent of fleet size, shard
// count and sibling instances.
func (in *instance) step(tSec, dtSec float64, cp *monitor.Checkpoint) (crashed bool) {
	active := in.activeEBs(tSec)

	// Response time degrades super-linearly as the old generation fills
	// (GC overhead) and as the connection pool saturates.
	heapPressure := in.oldUsedMB / oldMaxMB
	connPressure := in.leakConns / maxDBConns
	resp := baseRespSec*(1+3*pow4(heapPressure)+pow4(connPressure)) + in.src.Normal(0, 0.004)
	if resp < 0.01 {
		resp = 0.01
	}
	in.thr = active / (thinkTimeSec + resp)

	// Apply the aging faults at the injectors' expected rates. The memory
	// fault is request-coupled (it scales with the load the instance sees
	// right now, spikes included); threads and connections leak on wall
	// time.
	memRate := in.thr * searchFrac * in.memPerHit // MB/s
	if memRate > 0 {
		in.oldUsedMB += memRate*dtSec + in.src.Normal(0, 0.4)
		if in.oldUsedMB < oldBaseMB {
			in.oldUsedMB = oldBaseMB
		}
	}
	thrRate := in.thrRate
	if thrRate > 0 {
		in.leakThreads += thrRate*dtSec + in.src.Normal(0, 0.25)
		if in.leakThreads < 0 {
			in.leakThreads = 0
		}
	}
	connRate := in.connRate
	if connRate > 0 {
		in.leakConns += connRate*dtSec + in.src.Normal(0, 0.15)
		if in.leakConns < 0 {
			in.leakConns = 0
		}
	}

	// Gauges derived from the load (Little's law for the busy workers).
	busy := in.thr * resp
	threads := baseThreads + busy + in.leakThreads
	busyConns := 0.5 * busy
	conns := busyConns + in.leakConns

	// The three ways an aged instance dies, mirroring appserver's crash
	// reasons: heap exhaustion, thread exhaustion, connection-pool
	// exhaustion.
	if in.oldUsedMB >= oldMaxMB || threads >= maxThreads || conns >= maxDBConns {
		return true
	}

	// Ground-truth time to failure under the current rates — the "freeze the
	// current injection rate" reference the paper uses for experiment 4.2.
	// Every candidate is positive here (the exhaustion check above ruled out
	// depleted resources), so plain comparisons replace math.Min/Max without
	// changing a single bit.
	ttf := monitor.InfiniteTTFSec
	if memRate > 1e-9 {
		if v := (oldMaxMB - in.oldUsedMB) / memRate; v < ttf {
			ttf = v
		}
	}
	if thrRate > 1e-9 {
		if v := (maxThreads - threads) / thrRate; v < ttf {
			ttf = v
		}
	}
	if connRate > 1e-9 {
		if v := (maxDBConns - conns) / connRate; v < ttf {
			ttf = v
		}
	}
	in.refTTFSec = ttf

	in.diskMB += in.thr * dtSec * logMBPerRequest
	youngUsed := in.src.Float64Between(16, youngMaxMB*0.85)
	tomcatMem := jvmBaseMB + in.oldUsedMB + youngUsed + stackMBPerThread*threads
	// Field stores instead of a composite literal: assigning a 20-field
	// struct literal makes the compiler build a 160-byte temporary and
	// duffcopy it into *cp; storing through the pointer writes each field
	// once. TTFSec is the one field the literal left at zero — the slot is
	// reused across ticks, so zero it explicitly.
	cp.TimeSec = tSec
	cp.Throughput = in.thr
	cp.Workload = active
	cp.ResponseTimeSec = resp
	cp.SystemLoad = busy
	cp.DiskUsedMB = in.diskMB
	cp.SwapFreeMB = swapMB
	cp.NumProcesses = baseProcesses
	cp.SystemMemUsedMB = otherProcsMB + tomcatMem
	cp.TomcatMemUsedMB = tomcatMem
	cp.NumThreads = threads
	cp.NumHTTPConns = active * 0.5
	cp.NumMySQLConns = conns
	cp.YoungMaxMB = youngMaxMB
	cp.OldMaxMB = oldMaxMB
	cp.YoungUsedMB = youngUsed
	cp.OldUsedMB = in.oldUsedMB
	cp.YoungPct = 100 * youngUsed / youngMaxMB
	cp.OldPct = 100 * in.oldUsedMB / oldMaxMB
	cp.TTFSec = 0
	return false
}

func pow4(x float64) float64 { x *= x; return x * x }

// trainingSpecs are the fixed run-to-crash executions the fleet's shared
// model is trained on: every aging class at several representative rates and
// workloads, plus one healthy execution labelled with the paper's "infinite"
// 3-hour horizon. The rate *spread* within each class matters as much as the
// coverage: with a single training rate per resource, the resource's level
// trajectory carries the same information as its consumption speed and the
// M5P induction never selects the speed features — training across rates is
// what makes level→TTF ambiguous and the SWA speeds (the paper's core
// derived variables) worth splitting on.
func trainingSpecs() []InstanceSpec {
	base := []InstanceSpec{
		{Class: ClassMemLeak, Profile: injector.Profile{MemoryN: 20, LeakMB: 1}, EBs: 80},
		{Class: ClassMemLeak, Profile: injector.Profile{MemoryN: 45, LeakMB: 1}, EBs: 150},
		{Class: ClassThreadLeak, Profile: injector.Profile{ThreadM: 8, ThreadT: 40}, EBs: 100},
		{Class: ClassThreadLeak, Profile: injector.Profile{ThreadM: 6, ThreadT: 60}, EBs: 140},
		{Class: ClassConnLeak, Profile: injector.Profile{ConnC: 2, ConnT: 110}, EBs: 70},
		{Class: ClassConnLeak, Profile: injector.Profile{ConnC: 5, ConnT: 80}, EBs: 100},
		{Class: ClassConnLeak, Profile: injector.Profile{ConnC: 6, ConnT: 60}, EBs: 160},
		{Class: ClassCombined, Profile: injector.Profile{MemoryN: 40, LeakMB: 1, ThreadM: 4, ThreadT: 90}, EBs: 120},
		{Class: ClassHealthy, EBs: 100},
	}
	for i := range base {
		base[i].ID = i
		base[i].AmpFrac = 0.1
		base[i].PeriodSec = 3600
		base[i].OffsetSec = float64(i) * 450
	}
	return base
}

// trainingMaxDuration caps the training executions; the aging specs all
// crash well within it and the healthy run is labelled infinite at the 3 h
// horizon, so longer adds nothing.
const trainingMaxDuration = 4 * time.Hour

// TrainingSeries simulates the fleet's training executions to completion
// (crash, or the horizon for the healthy run) through the same instance
// model the fleet serves, and labels every checkpoint with its true time to
// failure. It is deterministic in the seed.
func TrainingSeries(seed uint64) ([]*monitor.Series, error) {
	specs := trainingSpecs()
	out := make([]*monitor.Series, 0, len(specs))
	dt := monitor.DefaultInterval.Seconds()
	maxTicks := int(trainingMaxDuration / monitor.DefaultInterval)
	for _, spec := range specs {
		in := newInstance(seed+1e6, spec) // offset keeps training streams off the fleet's
		s := &monitor.Series{
			Name:        fmt.Sprintf("fleet-train-%d-%s", spec.ID, spec.Class),
			IntervalSec: dt,
			Workload:    spec.EBs,
		}
		for tick := 1; tick <= maxTicks; tick++ {
			t := float64(tick) * dt
			var cp monitor.Checkpoint
			if in.step(t, dt, &cp) {
				s.Crashed = true
				s.CrashTimeSec = t
				s.CrashReason = "resource exhaustion"
				break
			}
			s.Checkpoints = append(s.Checkpoints, cp)
		}
		if spec.Profile.Aging() && !s.Crashed {
			return nil, fmt.Errorf("fleet: training run %q (%s) did not crash within %v",
				s.Name, spec.Profile, trainingMaxDuration)
		}
		for i := range s.Checkpoints {
			if s.Crashed {
				s.Checkpoints[i].TTFSec = math.Max(0, s.CrashTimeSec-s.Checkpoints[i].TimeSec)
			} else {
				s.Checkpoints[i].TTFSec = monitor.InfiniteTTFSec
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// TrainModel trains the fleet's shared base model — an M5P tree over the
// full Table 2 variable set — from the fleet's training executions. Train
// once, then hand the model to Config.Model (Run creates a Session per
// instance; the immutable model is shared read-only across shards). The
// model persists with core's Encode/DecodeModel, so a fleet can also serve a
// previously-saved artifact instead of retraining.
func TrainModel(seed uint64) (*core.Model, error) {
	return TrainModelSchema(seed, nil)
}

// TrainModelSchema is TrainModel with an explicit feature schema (nil = the
// full Table 2 schema): the same training executions, extracted and learned
// under the given schema. This is how a fleet gets e.g. the "full+conn"
// connection-speed derivatives.
func TrainModelSchema(seed uint64, schema *features.Schema) (*core.Model, error) {
	series, err := TrainingSeries(seed)
	if err != nil {
		return nil, err
	}
	return trainModelOn(series, schema)
}

// trainModelOn fits the shared M5P model on already-simulated training
// series under the given schema (nil = full).
func trainModelOn(series []*monitor.Series, schema *features.Schema) (*core.Model, error) {
	m, err := core.Train(core.Config{Schema: schema}, series)
	if err != nil {
		return nil, fmt.Errorf("fleet: training shared model: %w", err)
	}
	return m, nil
}
