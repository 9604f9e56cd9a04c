package fleet

import (
	"bytes"
	"testing"

	"agingpred/internal/core"
	"agingpred/internal/monitor"
	"agingpred/internal/rejuv"
)

// swapObserver is a test observer whose session can be repointed between
// ticks, standing in for an adaptive stream adopting a new model epoch at its
// reset boundary.
type swapObserver struct{ s *core.Session }

func (o *swapObserver) Session() *core.Session                      { return o.s }
func (o *swapObserver) Record(*monitor.Checkpoint, core.Prediction) {}

// cloneModel round-trips the model through its persistence encoding, yielding
// a distinct *core.Model identical in behaviour — the cheapest way to mint
// "new epochs" without retraining.
func cloneModel(t *testing.T, m *core.Model) *core.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	clone, err := core.DecodeModel(&buf)
	if err != nil {
		t.Fatalf("DecodeModel: %v", err)
	}
	if clone == m {
		t.Fatal("DecodeModel returned the same pointer")
	}
	return clone
}

// healthySpecs builds n fault-free specs: the eviction test needs instances
// that step forever without crashing.
func healthySpecs(n int) []InstanceSpec {
	specs := make([]InstanceSpec, n)
	for i := range specs {
		specs[i] = InstanceSpec{ID: i, Class: ClassHealthy, EBs: 100,
			AmpFrac: 0.1, PeriodSec: 3600}
	}
	return specs
}

// tickPool drives one pool tick inline (serial mode flushes on the caller's
// goroutine).
func tickPool(p *pool, tick int) {
	dt := monitor.DefaultInterval.Seconds()
	p.tSec, p.dtSec = float64(tick)*dt, dt
	p.flush(nil)
	p.wait()
}

// TestModelBatchEviction drives a single-shard pool through several model
// "epoch swaps" and checks its stager never accumulates retired epochs: a
// group whose model went idle is dropped the first tick no session of the
// shard serves it any more — unless a down instance still holds a session on
// the old epoch, in which case it must be retained until that instance moves
// on. The rule itself is core.Stager's (TestStagerEviction); this pins the
// fleet's predicate, which counts down instances' sessions.
func TestModelBatchEviction(t *testing.T) {
	base := testModel(t)
	const n = 4
	specs := healthySpecs(n)
	instances := make([]*instance, n)
	observers := make([]observer, n)
	swaps := make([]*swapObserver, n)
	for i, spec := range specs {
		instances[i] = newInstance(1, spec)
		swaps[i] = &swapObserver{base.NewSession()}
		observers[i] = swaps[i]
	}
	p := newPool(1, observers, instances, true)
	defer p.close()

	tick := 1
	tickPool(p, tick)
	if ms := p.stagers[0].Models(); len(ms) != 1 || ms[0] != base {
		t.Fatalf("after the first tick, want exactly one group for the base model, got %d", len(ms))
	}

	// Several epoch swaps: every instance adopts the next epoch, the old
	// epoch's group must be gone by the end of the next tick.
	current := base
	for epoch := 2; epoch <= 5; epoch++ {
		next := cloneModel(t, base)
		for _, o := range swaps {
			o.s = next.NewSession()
		}
		tick++
		tickPool(p, tick)
		ms := p.stagers[0].Models()
		if len(ms) != 1 {
			t.Fatalf("epoch %d: %d groups retained, want 1 (retired epochs must be evicted)", epoch, len(ms))
		}
		if ms[0] != next {
			t.Fatalf("epoch %d: surviving group serves the wrong model", epoch)
		}
		if ms[0] == current {
			t.Fatalf("epoch %d: group still on the retired epoch", epoch)
		}
		current = next
	}

	// Retention case: instance 0 stays on the current epoch but goes down;
	// everyone else moves to a new epoch. The old epoch's group idles (nothing
	// staged) but must survive while the down instance's session still serves
	// it — the instance resumes on that model if no reset intervenes.
	next := cloneModel(t, base)
	for _, o := range swaps[1:] {
		o.s = next.NewSession()
	}
	p.down[0] = true
	tick++
	tickPool(p, tick)
	if got := len(p.stagers[0].Models()); got != 2 {
		t.Fatalf("down instance on a retired epoch: %d groups, want 2 (old epoch retained)", got)
	}

	// The down instance comes back and adopts the new epoch at reset: the old
	// group loses its last holdout and is evicted.
	p.down[0] = false
	swaps[0].s = next.NewSession()
	tick++
	tickPool(p, tick)
	ms := p.stagers[0].Models()
	if len(ms) != 1 {
		t.Fatalf("after the holdout moved on: %d groups, want 1", len(ms))
	}
	if ms[0] != next {
		t.Fatal("surviving group serves the wrong model")
	}
}

// TestTickZeroAllocs pins the hot-path allocation budget: in steady state a
// pool tick — step every instance, stage features, batch predict, record
// results — allocates nothing, and neither does an idle controller advance.
// Uses a mixed population (every class present) so every fault branch of the
// stepper and the staging/predict path are exercised; the two-epoch case is
// an adaptive fleet mid-swap, every shard staging, sweeping and evicting over
// two live groups.
func TestTickZeroAllocs(t *testing.T) {
	model := testModel(t)
	for _, epochs := range []int{1, 2} {
		second := model
		if epochs == 2 {
			second = cloneModel(t, model)
		}
		specs := Specs(3, 32)
		n := len(specs)
		instances := make([]*instance, n)
		observers := make([]observer, n)
		for i, spec := range specs {
			instances[i] = newInstance(3, spec)
			m := model
			if i&2 != 0 { // not i&1: with two shards, the shard is the ID's parity
				m = second
			}
			observers[i] = sessionObserver{m.NewSession()}
		}
		p := newPool(2, observers, instances, true)
		defer p.close()

		// Warm up: grow the batches and feature buffers to their steady-state
		// capacity, and get every sliding window past its fill phase. Crashes
		// are reset inline (no controller here) so instances keep serving.
		tick := 0
		for tick < 64 {
			tick++
			tickPool(p, tick)
			for id, in := range instances {
				if p.results[id].kind == resCrashed {
					in.reset()
					observers[id].Session().Reset()
				}
			}
		}
		for s, st := range p.stagers {
			if got := len(st.Models()); got != epochs {
				t.Fatalf("shard %d has %d live groups, want %d", s, got, epochs)
			}
		}

		allocs := testing.AllocsPerRun(50, func() {
			tick++
			tickPool(p, tick)
		})
		if allocs != 0 {
			t.Fatalf("steady-state pool tick with %d epochs live allocates %.1f times, want 0", epochs, allocs)
		}
	}

	// An idle controller advance (no completions due) is on the same per-tick
	// path and must be allocation-free too.
	ctrl, err := rejuv.NewController(4)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Crash(0, 1, 600)
	allocs := testing.AllocsPerRun(50, func() {
		ctrl.AdvanceDetailed(2) // long before the 600 s downtime completes
	})
	if allocs != 0 {
		t.Fatalf("idle controller advance allocates %.1f times, want 0", allocs)
	}
}
