package fleet

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"agingpred/internal/monitor"
)

// stepTrajectoryDigest is the FNV-64a digest of every instance trajectory
// TestStepTrajectoryDigest drives. It was recorded once and is never
// regenerated: a change to the simulator that moves a single bit of any
// checkpoint, crash decision or carried state fails the test, and such a
// change is a change of the simulated fleet, not of its implementation.
const stepTrajectoryDigest uint64 = 0x50ce95914f0ab9ba

// fleetPopulationDigest and trainingSpecsDigest are the digests of the two
// halves of that drive on their own, recorded at the same steppers as
// stepTrajectoryDigest: the five hand-specialised steppers, which reproduced
// the generic stepper bit for bit on these very populations.
const (
	fleetPopulationDigest uint64 = 0x2271c000cf62a391
	trainingSpecsDigest   uint64 = 0xfb12f4e54987bec6
)

// digestFloat feeds one float's bits into h.
func digestFloat(h hash.Hash64, buf *[8]byte, v float64) {
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}

// digestRun steps one instance through ticks checkpoint intervals, resetting
// it on a crash as the fleet controller does, and feeds every crash decision,
// checkpoint field and piece of carried state into h.
func digestRun(h hash.Hash64, seed uint64, spec InstanceSpec, ticks int) {
	var buf [8]byte
	in := newInstance(seed, spec)
	dt := monitor.DefaultInterval.Seconds()
	var cp monitor.Checkpoint
	for tick := 1; tick <= ticks; tick++ {
		crashed := in.step(float64(tick)*dt, dt, &cp)
		if crashed {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
			for _, v := range cp.Vec() {
				digestFloat(h, &buf, v)
			}
		}
		for _, v := range [...]float64{in.refTTFSec, in.thr, in.oldUsedMB, in.leakThreads, in.leakConns, in.diskMB} {
			digestFloat(h, &buf, v)
		}
		if crashed {
			in.reset()
		}
	}
}

// digestFleetPopulation drives three heterogeneous 200-instance fleet
// populations over six simulated hours into h.
func digestFleetPopulation(h hash.Hash64) {
	for _, seed := range []uint64{1, 5, 42} {
		for _, spec := range Specs(seed, 200) {
			digestRun(h, seed, spec, 6*240)
		}
	}
}

// digestTrainingSpecs drives the fixed training population at two seeds over
// eight simulated hours into h.
func digestTrainingSpecs(h hash.Hash64) {
	for _, seed := range []uint64{1, 9} {
		for _, spec := range trainingSpecs() {
			digestRun(h, seed+1e6, spec, 8*240)
		}
	}
}

// TestStepTrajectoryDigest pins the simulator's bits: three heterogeneous
// fleet populations over six simulated hours and the fixed training
// population at two seeds over eight, crashes and resets included.
func TestStepTrajectoryDigest(t *testing.T) {
	h := fnv.New64a()
	digestFleetPopulation(h)
	digestTrainingSpecs(h)
	if got := h.Sum64(); got != stepTrajectoryDigest {
		t.Fatalf("trajectory digest %#016x, want %#016x", got, stepTrajectoryDigest)
	}
}

// TestStepEquivalenceFleetPopulation holds the stepper to the trajectories
// the specialised steppers drew for the heterogeneous fleet populations, so a
// divergence is attributed to the served fleet rather than the training set.
func TestStepEquivalenceFleetPopulation(t *testing.T) {
	h := fnv.New64a()
	digestFleetPopulation(h)
	if got := h.Sum64(); got != fleetPopulationDigest {
		t.Fatalf("fleet population digest %#016x, want %#016x", got, fleetPopulationDigest)
	}
}

// TestStepEquivalenceTrainingSpecs does the same for the training
// population: the executions the shared model is fitted on must be exactly as
// bit-stable as the served fleet.
func TestStepEquivalenceTrainingSpecs(t *testing.T) {
	h := fnv.New64a()
	digestTrainingSpecs(h)
	if got := h.Sum64(); got != trainingSpecsDigest {
		t.Fatalf("training specs digest %#016x, want %#016x", got, trainingSpecsDigest)
	}
}
