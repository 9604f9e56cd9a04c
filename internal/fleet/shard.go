package fleet

import (
	"context"
	"sync"

	"agingpred/internal/core"
	"agingpred/internal/monitor"
)

// observer is what the prediction layer drives per instance: the underlying
// core.Session to stage into its shard's batch, plus a Record hook invoked
// with the issued prediction. A frozen fleet wraps plain core.Sessions
// (Record is a no-op); an adaptive fleet serves adapt.Streams, whose Record
// remembers the prediction for later label resolution. Either way the
// observer is touched only by its instance's shard worker.
type observer interface {
	Session() *core.Session
	Record(cp *monitor.Checkpoint, pred core.Prediction)
}

// sessionObserver adapts a plain frozen-model session to the observer
// interface; staging plus the (empty) Record is exactly Session.Observe.
type sessionObserver struct{ s *core.Session }

func (o sessionObserver) Session() *core.Session                      { return o.s }
func (o sessionObserver) Record(*monitor.Checkpoint, core.Prediction) {}

// resultKind is the outcome a shard worker reports for one instance's tick.
type resultKind uint8

const (
	// resDown: the instance was down the whole interval; flow carries the
	// traffic its users kept offering (all lost).
	resDown resultKind = iota
	// resServed: the instance served the interval and was staged for
	// prediction; flow carries the requests it served, ttfSec/err the
	// prediction outcome.
	resServed
	// resCrashed: the instance ran a resource dry during the interval; flow
	// carries the offered (lost) traffic. The driver turns this into
	// controller/journal crash bookkeeping after the barrier.
	resCrashed
)

// obsResult is one worker's answer for one instance, written into the pool's
// result slot and merged by the driver after the tick barrier.
type obsResult struct {
	ttfSec float64
	flow   float64 // served requests (resServed) or lost requests (resDown/resCrashed)
	err    error
	kind   resultKind
}

// pool is the sharded simulation-and-prediction engine: every instance is
// consistently assigned to one shard (core.ShardOf of its ID), each shard
// is one worker goroutine, and each instance's simulator state and session
// are touched only by its own shard — so no locks are needed around any
// per-instance mutable state.
//
// The unit of dispatch is a whole shard tick: the driver publishes the
// tick's clock (tSec/dtSec) and wakes each worker once (flush). A worker
// walks its shard's instances in ascending ID order, steps each live
// instance's simulator straight into the per-instance checkpoint slot,
// stages the survivors into its core.Stager (one core.Batch per model),
// sweeps the flattened regressors over the contiguous batches, records the
// predictions, writes one result slot per instance, and hits the tick
// barrier. One channel send and one WaitGroup count per shard per tick is
// all the synchronisation there is.
//
// Determinism: every instance draws from its own named RNG stream, so the
// trajectory each worker computes is independent of which shard steps it and
// of the order shards run in. All cross-instance state — report aggregates,
// controller, journal — is folded by the driver after the barrier in
// instance-ID order, which is exactly the retained serial reference order
// (serial mode below).
//
// Memory ordering: the flush sends publish the driver's tSec/dtSec and
// down-flag writes to the workers, and the tick WaitGroup orders the
// workers' result and Record writes before the driver's reads in wait.
type pool struct {
	sessions  []observer
	instances []*instance
	// down mirrors the controller's per-instance availability; only the
	// driver writes it (between barriers), workers read it at step time.
	down     []bool
	cps      []monitor.Checkpoint // per-instance checkpoint slot for the tick
	results  []obsResult
	shardIDs [][]int             // static per-shard instance IDs, ascending
	stagers  []*core.Stager[int] // per shard; each row tagged with its instance ID
	staged   []int               // per-shard count of staged instances this tick

	// tick parameters, written by the driver before flush.
	tSec, dtSec float64

	// serial selects the retained serial-stepping reference path: no worker
	// goroutines; flush runs every shard tick inline on the caller's
	// goroutine. Bit-identical to the parallel engine by construction — the
	// determinism tests diff the two.
	serial  bool
	work    []chan struct{} // per-shard tick signal
	tick    sync.WaitGroup  // per-tick barrier: one count per signalled shard
	workers sync.WaitGroup  // worker lifetime, for close
}

// newPool precomputes the static per-shard instance lists and starts one
// worker per shard (none in serial mode). sessions[i] is instance i's private
// per-stream state, instances[i] its private simulator state; results has one
// slot per instance.
func newPool(shards int, sessions []observer, instances []*instance, serial bool) *pool {
	p := &pool{
		sessions:  sessions,
		instances: instances,
		down:      make([]bool, len(sessions)),
		cps:       make([]monitor.Checkpoint, len(sessions)),
		results:   make([]obsResult, len(sessions)),
		shardIDs:  make([][]int, shards),
		stagers:   make([]*core.Stager[int], shards),
		staged:    make([]int, shards),
		serial:    serial,
	}
	// Ascending IDs per shard: the walk order within a shard never matters
	// for determinism (independent RNG streams), but a fixed order keeps the
	// batch layouts — and so the Record call pattern — reproducible.
	for id := range sessions {
		s := core.ShardOf(uint64(id), shards)
		p.shardIDs[s] = append(p.shardIDs[s], id)
	}
	for s, ids := range p.shardIDs {
		p.stagers[s] = core.NewStager[int](len(ids))
	}
	if serial {
		return p
	}
	p.work = make([]chan struct{}, shards)
	for s := range p.work {
		ch := make(chan struct{}, 1)
		p.work[s] = ch
		p.workers.Add(1)
		go p.worker(s, ch)
	}
	return p
}

// worker serves one shard: one full shard tick per signal, then the barrier.
func (p *pool) worker(s int, ch <-chan struct{}) {
	defer p.workers.Done()
	for range ch {
		p.shardTick(s)
		p.tick.Done()
	}
}

// shardTick runs one shard's whole tick: step every owned instance, stage
// the live ones per model, predict in batch, record, and report per-instance
// outcomes into the result slots. Touches only shard-owned state (plus the
// driver-published tick clock and down flags), so it is equally correct on a
// worker goroutine or inline in serial mode.
func (p *pool) shardTick(s int) {
	t, dt := p.tSec, p.dtSec
	st, ids := p.stagers[s], p.shardIDs[s]
	// Local slice headers: the step/Stage calls below take &cps[id], so
	// without these the compiler must conservatively reload every p field
	// after each call.
	sessions, instances, down, cps, results := p.sessions, p.instances, p.down, p.cps, p.results
	staged := 0
	for _, id := range ids {
		in := instances[id]
		if down[id] {
			// Down the whole interval: its users keep offering traffic that
			// is all lost; nothing is staged.
			results[id] = obsResult{kind: resDown, flow: in.expectedThroughput(t) * dt}
			continue
		}
		// Step straight into the instance's pool slot: the 160-byte
		// checkpoint is written once and never copied again.
		if in.step(t, dt, &cps[id]) {
			results[id] = obsResult{kind: resCrashed, flow: in.expectedThroughput(t) * dt}
			continue
		}
		st.Stage(sessions[id].Session(), &cps[id], id)
		results[id] = obsResult{kind: resServed, flow: cps[id].Throughput * dt}
		staged++
	}
	// A down instance's session counts as serving: it resumes on its old
	// epoch if no reset intervenes.
	st.Evict(func(m *core.Model) bool {
		for _, id := range ids {
			if sessions[id].Session().Model() == m {
				return true
			}
		}
		return false
	})
	st.Predict(func(group []int, preds []core.Prediction, err error) {
		mBatchSize.Observe(float64(len(group)))
		for k, id := range group {
			if err != nil {
				results[id].err = err
				continue
			}
			sessions[id].Record(&cps[id], preds[k])
			results[id].ttfSec = preds[k].TTFSec
		}
	})
	p.staged[s] = staged
}

// flush hands the tick to the workers, one signal per shard; the driver must
// have written tSec/dtSec (and any down-flag updates) before calling. It
// returns false if ctx is cancelled before every shard was signalled (the
// barrier stays consistent — call wait regardless); a nil ctx never cancels.
// In serial mode it runs every shard tick inline and never cancels mid-tick.
func (p *pool) flush(ctx context.Context) bool {
	if p.serial {
		for s := range p.shardIDs {
			p.shardTick(s)
		}
		return true
	}
	for _, ch := range p.work {
		p.tick.Add(1)
		if ctx == nil {
			ch <- struct{}{}
			continue
		}
		select {
		case ch <- struct{}{}:
		case <-ctx.Done():
			p.tick.Done()
			return false
		}
	}
	return true
}

// wait blocks until every signalled shard has finished its tick.
func (p *pool) wait() {
	if p.serial {
		return
	}
	p.tick.Wait()
}

// close shuts the tick channels down and waits for the workers to exit.
// Call only after wait (no tick in flight).
func (p *pool) close() {
	if p.serial {
		return
	}
	for _, ch := range p.work {
		close(ch)
	}
	p.workers.Wait()
}
