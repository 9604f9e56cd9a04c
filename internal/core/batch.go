package core

import (
	"fmt"

	"agingpred/internal/features"
	"agingpred/internal/monitor"
)

// Batch evaluates one checkpoint for each of many sessions of the same Model
// in a single pass. The per-stream feature rows are staged back to back in a
// contiguous struct-of-arrays buffer (features.RowBatch) and the regressor is
// evaluated over the whole batch at once (PredictBatch on the flattened,
// schema-bound form), so a shard of a server fleet costs one cache-friendly
// sweep per tick instead of one independent pointer walk per instance.
//
// Batch predictions are bit-for-bit identical to calling Session.Observe on
// each session in staging order: staging runs the very same projected
// extractor step, and PredictBatch is defined as the scalar Predict applied
// row by row (the differential suite in internal/difftest pins this).
//
// A Batch is reused tick after tick — Reset keeps every buffer, so
// steady-state batch serving allocates nothing. It serves one goroutine
// (e.g. one fleet shard worker) and is not safe for concurrent use; the
// sessions staged into it follow the usual Session ownership rules.
type Batch struct {
	m     *Model
	rows  *features.RowBatch
	times []float64
	raw   []float64
	preds []Prediction
}

// NewBatch creates an empty prediction batch for the model, with buffers
// pre-allocated for capacity rows (the expected shard size; the batch grows
// past it if needed).
func (m *Model) NewBatch(capacity int) *Batch {
	if capacity < 0 {
		capacity = 0
	}
	return &Batch{
		m:     m,
		rows:  features.NewRowBatch(len(m.attrs), capacity),
		times: make([]float64, 0, capacity),
		raw:   make([]float64, capacity),
		preds: make([]Prediction, capacity),
	}
}

// Model returns the shared model the batch predicts with.
func (b *Batch) Model() *Model { return b.m }

// Len returns the number of staged rows.
func (b *Batch) Len() int { return b.rows.Len() }

// Reset empties the batch for the next tick, keeping all backing storage.
func (b *Batch) Reset() {
	b.rows.Reset()
	b.times = b.times[:0]
}

// Stage advances one session by one checkpoint, writing its feature row into
// the batch's buffer. It is exactly the extraction half of Session.Observe —
// the same projected extractor step, mutating the same sliding-window state —
// with the regressor evaluation deferred to Predict. The session must belong
// to the batch's model.
func (b *Batch) Stage(s *Session, cp *monitor.Checkpoint) error {
	if s.m != b.m {
		return fmt.Errorf("core: staging a session of a different model into batch")
	}
	b.stage(s, cp)
	return nil
}

// stage is Stage for a session already known to belong to the batch's model.
func (b *Batch) stage(s *Session, cp *monitor.Checkpoint) {
	s.stream.StepInto(cp, b.rows.Next())
	b.times = append(b.times, cp.TimeSec)
}

// Predict evaluates the regressor over every staged row and returns one
// Prediction per row, in staging order. The returned slice is valid until the
// next call to Predict or Reset. Results are bit-identical to Session.Observe
// on each staged session.
func (b *Batch) Predict() ([]Prediction, error) {
	n := b.rows.Len()
	mPredictions.Add(uint64(n))
	if cap(b.raw) < n {
		b.raw = make([]float64, n)
		b.preds = make([]Prediction, n)
	}
	raw, preds := b.raw[:n], b.preds[:n]
	m := b.m
	if m.bound != nil {
		m.bound.PredictBatch(b.rows.Rows(), raw)
		for i := 0; i < n; i++ {
			preds[i] = m.clamp(b.times[i], raw[i])
		}
		return preds, nil
	}
	// Name-resolving fallback for unbound models: row-by-row through the
	// serialised PredictRow path, same as Session.Observe would take.
	rows := b.rows.Rows()
	for i := 0; i < n; i++ {
		pr, err := m.PredictRow(b.times[i], m.attrs, rows[i])
		if err != nil {
			return nil, err
		}
		preds[i] = pr
	}
	return preds, nil
}

// Stager is one shard's staging engine: it groups the checkpoints staged
// between two sweeps by the model their session serves — one Batch per model,
// so sessions on different epochs (an adaptive fleet mid-swap, a hot-swapped
// server) land in different groups — and sweeps every group with one
// Batch.Predict. T is the caller's per-row tag (an instance ID, a reply
// handle), handed back beside each row's prediction.
//
// The eviction rule: a group with nothing staged is dropped when no session
// of the shard serves its model any more. Without it a long adaptive run
// would keep every epoch it ever served; with it a group survives while, say,
// a down instance still holds a session on a retired epoch.
//
// Live model counts are tiny (usually one), so a row's group is found by
// linear scan. Like Batch, a Stager serves one goroutine, and in steady state
// Stage, Predict and Evict allocate nothing.
type Stager[T any] struct {
	groups   []*stageGroup[T]
	capacity int
}

type stageGroup[T any] struct {
	b    *Batch
	tags []T // one per staged row, in staging order
}

// NewStager creates an empty staging engine whose per-model groups
// pre-allocate capacity rows (the shard size or flush size; a group grows
// past it if needed).
func NewStager[T any](capacity int) *Stager[T] {
	return &Stager[T]{capacity: capacity}
}

// Stage advances s by one checkpoint, as Batch.Stage does, into the group of
// the model s serves, creating the group on that model's first row, and
// remembers tag for the row.
func (st *Stager[T]) Stage(s *Session, cp *monitor.Checkpoint, tag T) {
	var g *stageGroup[T]
	for _, c := range st.groups {
		if c.b.m == s.m {
			g = c
			break
		}
	}
	if g == nil {
		g = &stageGroup[T]{b: s.m.NewBatch(st.capacity), tags: make([]T, 0, st.capacity)}
		st.groups = append(st.groups, g)
	}
	g.b.stage(s, cp)
	g.tags = append(g.tags, tag)
}

// Predict sweeps every group with rows staged, in the order the groups were
// created, and calls fn once per group with the rows' tags and predictions in
// staging order (or the group's Batch.Predict error), then empties the group,
// keeping its buffers. Both slices are valid only during the call.
func (st *Stager[T]) Predict(fn func(tags []T, preds []Prediction, err error)) {
	for _, g := range st.groups {
		if len(g.tags) == 0 {
			continue
		}
		preds, err := g.b.Predict()
		fn(g.tags, preds, err)
		g.b.Reset()
		g.tags = g.tags[:0]
	}
}

// Evict applies the eviction rule: it drops every group with nothing staged
// whose model serves reports no session of the shard serving. serves is asked
// only about idle groups, so its scan stays off the steady-state path.
func (st *Stager[T]) Evict(serves func(*Model) bool) {
	kept := st.groups[:0]
	for _, g := range st.groups {
		if len(g.tags) > 0 || serves(g.b.m) {
			kept = append(kept, g)
		}
	}
	clear(st.groups[len(kept):])
	st.groups = kept
}

// Models returns the models that currently have a group, in group order.
func (st *Stager[T]) Models() []*Model {
	ms := make([]*Model, len(st.groups))
	for i, g := range st.groups {
		ms[i] = g.b.m
	}
	return ms
}

// ShardOf is the consistent ID→shard assignment shared by every sharded
// engine (fleet instances, served sessions): a 64-bit FNV-1a hash of the
// ID's eight little-endian bytes, reduced modulo shards. Stable across runs
// and independent of staging order.
func ShardOf(id uint64, shards int) int {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= id & 0xff
		h *= prime
		id >>= 8
	}
	return int(h % uint64(shards))
}
