package features

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"agingpred/internal/dataset"
	"agingpred/internal/monitor"
	"agingpred/internal/sliding"
)

// This file is the schema layer of the feature pipeline: instead of a
// hardcoded Table 2 variable list, a feature Schema is assembled from
// ResourceDescriptors (name, unit, direction, SWA window) from which the
// paper's derived metrics — SWA consumption speed, its inverse, the speed
// normalised by throughput, the level over the speed, and their combinations
// — are generated generically. The paper's three variable lists (full,
// no-heap, heap-focus) are schemas in schema_defs.go, byte-identical to the
// original hard-coded lists, and new workloads can register schemas carrying
// their own resources (e.g. "full+conn" adds database-connection speed
// derivatives) without touching this package's core.
//
// A Schema is compiled at build time into an index-based column program; the
// per-stream RowExtractor evaluates that program with no map lookups and no
// per-checkpoint allocations, which is what keeps core.Session.Observe
// allocation-free in steady state.

// LevelFunc reads one raw metric from a checkpoint. The pointer receiver
// avoids copying the checkpoint once per column on the hot path; accessors
// must not retain or mutate the checkpoint.
type LevelFunc func(cp *monitor.Checkpoint) float64

// Direction documents how a resource approaches exhaustion. It does not
// change the generated columns — speeds are signed either way — but it is
// part of the descriptor so tooling (schema listings, root-cause reports)
// can say which way "bad" points.
type Direction int

const (
	// Gauge resources have no exhaustion direction (throughput, load).
	Gauge Direction = iota
	// Growing resources age by filling a capacity (heap, threads, pooled
	// connections).
	Growing
	// Shrinking resources age by draining towards zero (free swap).
	Shrinking
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Gauge:
		return "gauge"
	case Growing:
		return "growing"
	case Shrinking:
		return "shrinking"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// ResourceDescriptor declares one monitored resource the schema tracks a
// consumption speed for. Derived-metric names are generated from Key
// ("swa_speed_<key>", "inv_swa_speed_<key>", ...), so adding a resource to a
// schema is one descriptor plus the list of derived families it should
// appear in.
type ResourceDescriptor struct {
	// Key is the short identifier used in derived-metric names ("old",
	// "threads", "conns"). Required, unique within a schema.
	Key string
	// LevelName is the identifier used by the "<level>_over_swa" family
	// (Table 2 names "young_used_over_swa", not "young_over_swa"). Empty
	// means Key.
	LevelName string
	// Unit documents the resource's unit ("MB", "threads").
	Unit string
	// Direction documents which way the resource ages.
	Direction Direction
	// Window overrides the schema's SWA window length for this resource's
	// speed (0 = the schema default).
	Window int
	// Level reads the resource's current level from a checkpoint. Required.
	Level LevelFunc
}

// levelName returns the effective "<level>_over_swa" identifier.
func (d ResourceDescriptor) levelName() string {
	if d.LevelName != "" {
		return d.LevelName
	}
	return d.Key
}

// colOp is one compiled column operation.
type colOp uint8

const (
	opRaw                 colOp = iota // raw metric, read straight off the checkpoint
	opSpeed                            // SWA consumption speed of a resource
	opSpeedPerTH                       // SWA speed / throughput
	opInvSpeed                         // 1 / SWA speed
	opLevelOverSpeed                   // level / SWA speed
	opInvSpeedPerTH                    // (1 / SWA speed) / throughput
	opLevelOverSpeedPerTH              // (level / SWA speed) / throughput
	opSmoothedLevel                    // SWA-smoothed raw level
)

// column is one compiled output column of a schema.
type column struct {
	name string
	op   colOp
	// res indexes Schema.resources for the speed-derived ops, and
	// Schema.smoothed for opSmoothedLevel. Unused (-1) for opRaw.
	res int
	// level is the checkpoint accessor for opRaw columns; idx is its
	// compiled checkpoint field index (-1 = not a plain field read, keep the
	// indirect call), fingerprinted once at schema build time.
	level LevelFunc
	idx   int32
	// owner is the Key of the resource this column belongs to ("" = none);
	// WithoutResources drops columns by owner.
	owner string
	// unit documents raw columns ("" for derived ones, whose unit follows
	// from the resource).
	unit string
}

// smoothedSpec is one SWA-smoothed level the schema maintains a window for.
type smoothedSpec struct {
	name   string
	owner  string
	window int // 0 = schema default
	level  LevelFunc
}

// Schema is an immutable, named feature schema: an ordered list of columns
// compiled over a set of resource descriptors. Build one with SchemaBuilder,
// register it with RegisterSchema, and extract rows with Stream (on-line,
// allocation-free) or Extract/ExtractAll (batch datasets). The target
// attribute of every schema-extracted dataset is Target (time to failure).
type Schema struct {
	name      string
	window    int
	resources []ResourceDescriptor
	smoothed  []smoothedSpec
	cols      []column
	attrs     []string
	// resIdx/smoothIdx are the compiled checkpoint field indices of the
	// resource and smoothed-level accessors (-1 = not a plain field read),
	// fingerprinted once at build time and shared read-only by every
	// extractor of the schema.
	resIdx    []int32
	smoothIdx []int32
}

// Name returns the schema's registry name.
func (s *Schema) Name() string { return s.name }

// WindowLength returns the default SWA window length, in checkpoints.
func (s *Schema) WindowLength() int { return s.window }

// NumAttrs returns the number of generated columns (excluding the target).
func (s *Schema) NumAttrs() int { return len(s.cols) }

// Attrs returns a copy of the column names, in dataset order.
func (s *Schema) Attrs() []string { return append([]string(nil), s.attrs...) }

// Resources returns a copy of the speed-tracked resource descriptors.
func (s *Schema) Resources() []ResourceDescriptor {
	return append([]ResourceDescriptor(nil), s.resources...)
}

// AttrsEqual reports whether the schema's column names are exactly names, in
// order. Model persistence uses it as the compatibility check when a saved
// model is loaded: the schema looked up by name must still generate the
// column layout the model was trained on, or the loaded model would silently
// read the wrong features.
func (s *Schema) AttrsEqual(names []string) bool {
	if len(names) != len(s.attrs) {
		return false
	}
	for i, n := range names {
		if n != s.attrs[i] {
			return false
		}
	}
	return true
}

// String summarises the schema.
func (s *Schema) String() string {
	keys := make([]string, len(s.resources))
	for i, r := range s.resources {
		keys[i] = r.Key
	}
	return fmt.Sprintf("schema %q: %d columns, %d speed-tracked resources (%s), window %d",
		s.name, len(s.cols), len(s.resources), strings.Join(keys, ", "), s.window)
}

// WithWindow returns a copy of the schema whose default SWA window length is
// n checkpoints (<= 0 keeps DefaultWindowLength). Resources with an explicit
// per-resource Window keep it. The copy keeps the schema's name but is not
// registered.
func (s *Schema) WithWindow(n int) *Schema {
	if n <= 0 {
		n = DefaultWindowLength
	}
	if n == s.window {
		return s
	}
	out := *s
	out.window = n
	return &out
}

// WithoutResources derives a new schema by removing the named resources and
// every column they own: their raw columns, all their speed-derived columns,
// and their smoothed levels. This is how the legacy exclusion sets are
// expressed ("no-heap" = full without {young, old}).
func (s *Schema) WithoutResources(name string, keys ...string) (*Schema, error) {
	drop := make(map[string]bool, len(keys))
	for _, k := range keys {
		if s.resourceIndex(k) < 0 {
			return nil, fmt.Errorf("features: schema %q has no resource %q", s.name, k)
		}
		drop[k] = true
	}
	out := &Schema{name: name, window: s.window}
	resMap := make([]int, len(s.resources))
	for i, r := range s.resources {
		if drop[r.Key] {
			resMap[i] = -1
			continue
		}
		resMap[i] = len(out.resources)
		out.resources = append(out.resources, r)
		out.resIdx = append(out.resIdx, s.resIdx[i])
	}
	smoothMap := make([]int, len(s.smoothed))
	for i, sp := range s.smoothed {
		if drop[sp.owner] {
			smoothMap[i] = -1
			continue
		}
		smoothMap[i] = len(out.smoothed)
		out.smoothed = append(out.smoothed, sp)
		out.smoothIdx = append(out.smoothIdx, s.smoothIdx[i])
	}
	for _, c := range s.cols {
		if drop[c.owner] {
			continue
		}
		switch c.op {
		case opRaw:
		case opSmoothedLevel:
			c.res = smoothMap[c.res]
		default:
			c.res = resMap[c.res]
		}
		out.cols = append(out.cols, c)
		out.attrs = append(out.attrs, c.name)
	}
	return out, nil
}

func (s *Schema) resourceIndex(key string) int {
	for i, r := range s.resources {
		if r.Key == key {
			return i
		}
	}
	return -1
}

// resourceWindow returns the effective window of resource i.
func (s *Schema) resourceWindow(i int) int {
	if w := s.resources[i].Window; w > 0 {
		return w
	}
	return s.window
}

func (s *Schema) smoothedWindow(i int) int {
	if w := s.smoothed[i].window; w > 0 {
		return w
	}
	return s.window
}

// NewDataset returns an empty dataset with the schema's columns and the
// standard time-to-failure target.
func (s *Schema) NewDataset(relation string) (*dataset.Dataset, error) {
	return dataset.New(relation, s.attrs, Target)
}

// Extract builds a dataset from a single monitored series: one instance per
// checkpoint, with the derived variables at checkpoint i using only
// information available up to i (so the resulting model can be applied
// on-line).
func (s *Schema) Extract(series *monitor.Series) (*dataset.Dataset, error) {
	if series == nil {
		return nil, fmt.Errorf("features: nil series")
	}
	if series.Len() == 0 {
		return nil, fmt.Errorf("features: series %q has no checkpoints", series.Name)
	}
	ds, err := s.NewDataset(series.Name)
	if err != nil {
		return nil, fmt.Errorf("features: building dataset schema: %w", err)
	}
	x := s.Stream()
	for _, cp := range series.Checkpoints {
		if err := ds.Append(x.Step(cp), cp.TTFSec); err != nil {
			return nil, fmt.Errorf("features: appending checkpoint at t=%v: %w", cp.TimeSec, err)
		}
	}
	return ds, nil
}

// ExtractAll builds one dataset from several series (e.g. the 4-execution
// training sets the paper uses), concatenating their instances.
func (s *Schema) ExtractAll(relation string, series []*monitor.Series) (*dataset.Dataset, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("features: no series")
	}
	out, err := s.NewDataset(relation)
	if err != nil {
		return nil, fmt.Errorf("features: building dataset schema: %w", err)
	}
	for _, sr := range series {
		ds, err := s.Extract(sr)
		if err != nil {
			return nil, err
		}
		if err := out.AppendAll(ds); err != nil {
			return nil, fmt.Errorf("features: merging series %q: %w", sr.Name, err)
		}
	}
	return out, nil
}

// RowExtractor is the compiled per-stream extraction state of one schema:
// one SpeedTracker per resource, one Window per smoothed level, and a
// reusable output row. Step is the per-checkpoint hot path — index-based,
// no map lookups, no allocations in steady state. A RowExtractor serves one
// checkpoint stream and is not safe for concurrent use.
//
// An extractor can be projected onto a column subset (StreamFor): only the
// selected columns — and only the sliding-window state they read — are
// computed, with the remaining row entries left zero. Every computed column
// performs exactly the operations the full extractor performs, so projected
// and full extraction agree bit-for-bit on the selected columns. This is how
// a serving session skips the derived features its bound model can never
// read.
type RowExtractor struct {
	s        *Schema
	trackers []*sliding.SpeedTracker
	windows  []*sliding.Window
	// cp holds the checkpoint being processed so accessors can take a
	// pointer into the extractor instead of escaping a stack copy.
	cp    monitor.Checkpoint
	level []float64 // per-resource level of the current checkpoint
	swa   []float64 // per-resource SWA speed after observing it
	// inv and los hold the per-resource Inverse(swa) and SafeDiv(level, swa)
	// shared by the derived families that read them (the plain column and its
	// per-throughput variant), computed at most once per resource per
	// checkpoint instead of once per column. needInv/needLos say which
	// resources any selected column actually reads them for.
	inv, los         []float64
	needInv, needLos []bool
	row              []float64 // reusable output buffer

	// Projection state: the resources and smoothed levels Step actually
	// updates (all of them for a full extractor).
	resOn    []int
	smoothOn []int
	// resIdx/smoothIdx are the schema's compiled checkpoint field indices of
	// the resource and smoothed-level accessors (-1 = not a plain field
	// read, keep the indirect call), shared read-only across extractors.
	resIdx    []int32
	smoothIdx []int32

	// The compiled column program for the selected columns, split by kind so
	// the per-checkpoint loops iterate compact 16/12-byte steps instead of
	// the schema's fat column structs. Raw and derived columns are pure
	// reads of disjoint state, so running the raw program first is
	// bit-identical to the schema's column order.
	rawProg     []rawStep
	derivedProg []derivedStep
}

// rawStep copies one raw checkpoint metric into its output column. idx is
// the compiled checkpoint field index (-1 = call level instead).
type rawStep struct {
	dst, idx int32
	level    LevelFunc
}

// derivedStep computes one derived column from the per-resource speed/level
// state (or a smoothed-level window, for opSmoothedLevel).
type derivedStep struct {
	dst, res int32
	op       colOp
}

// compile builds the split column program for the selected schema columns,
// in schema order within each kind, and records which resources need the
// shared inv/los intermediates.
func (x *RowExtractor) compile(cols []int) {
	for _, ci := range cols {
		c := &x.s.cols[ci]
		if c.op == opRaw {
			x.rawProg = append(x.rawProg, rawStep{dst: int32(ci), idx: c.idx, level: c.level})
			continue
		}
		switch c.op {
		case opInvSpeed, opInvSpeedPerTH:
			x.needInv[c.res] = true
		case opLevelOverSpeed, opLevelOverSpeedPerTH:
			x.needLos[c.res] = true
		}
		x.derivedProg = append(x.derivedProg, derivedStep{dst: int32(ci), res: int32(c.res), op: c.op})
	}
}

// fieldIndexOf compiles a level accessor down to the checkpoint field it
// reads, or -1 when it is not a plain field read. Accessors are opaque
// functions, so the compilation is behavioural: the accessor is evaluated on
// two probe checkpoints whose fields hold distinct irrational-spread values;
// only a plain read of field k returns exactly probe.Vec()[k] on both. Any
// accessor that computes keeps the indirect call — slower, still correct.
func fieldIndexOf(f LevelFunc) int32 {
	var p1, p2 monitor.Checkpoint
	v1, v2 := p1.Vec(), p2.Vec()
	for i := range v1 {
		v1[i] = 1e3 + 13.7*math.Sqrt(float64(i)+2)
		v2[i] = -5e2 - 7.3*math.Cbrt(float64(i)+3)
	}
	a, b := f(&p1), f(&p2)
	for i := range v1 {
		if a == v1[i] && b == v2[i] {
			return int32(i)
		}
	}
	return -1
}

// Stream returns a fresh extraction state for one checkpoint stream,
// computing every column of the schema.
func (s *Schema) Stream() *RowExtractor {
	x, _ := s.StreamFor(nil)
	return x
}

// StreamFor returns a fresh extraction state that computes only the given
// columns (schema column indices) and maintains only the sliding-window
// state those columns read; the remaining entries of the returned rows stay
// zero. nil selects every column. Out-of-range or duplicate indices are an
// error.
func (s *Schema) StreamFor(cols []int) (*RowExtractor, error) {
	x := &RowExtractor{
		s:         s,
		trackers:  make([]*sliding.SpeedTracker, len(s.resources)),
		windows:   make([]*sliding.Window, len(s.smoothed)),
		level:     make([]float64, len(s.resources)),
		swa:       make([]float64, len(s.resources)),
		inv:       make([]float64, len(s.resources)),
		los:       make([]float64, len(s.resources)),
		needInv:   make([]bool, len(s.resources)),
		needLos:   make([]bool, len(s.resources)),
		resIdx:    s.resIdx,
		smoothIdx: s.smoothIdx,
		row:       make([]float64, len(s.cols)),
	}
	for i := range s.resources {
		x.trackers[i] = sliding.NewSpeedTracker(s.resourceWindow(i))
	}
	for i := range s.smoothed {
		x.windows[i] = sliding.NewWindow(s.smoothedWindow(i))
	}
	if cols == nil {
		// A full extractor computes every column and maintains every
		// tracker, whether or not a column reads it.
		colsOn := make([]int, len(s.cols))
		for i := range s.cols {
			colsOn[i] = i
		}
		x.compile(colsOn)
		x.resOn = make([]int, len(s.resources))
		for i := range s.resources {
			x.resOn[i] = i
		}
		x.smoothOn = make([]int, len(s.smoothed))
		for i := range s.smoothed {
			x.smoothOn[i] = i
		}
		return x, nil
	}
	seen := make(map[int]bool, len(cols))
	for _, ci := range cols {
		if ci < 0 || ci >= len(s.cols) {
			return nil, fmt.Errorf("features: schema %q has no column %d (have %d)", s.name, ci, len(s.cols))
		}
		if seen[ci] {
			return nil, fmt.Errorf("features: duplicate projected column %d", ci)
		}
		seen[ci] = true
	}
	colsOn := append([]int(nil), cols...)
	sort.Ints(colsOn)
	x.compile(colsOn)
	resSeen := make([]bool, len(s.resources))
	smoothSeen := make([]bool, len(s.smoothed))
	for _, ci := range colsOn {
		c := &s.cols[ci]
		switch c.op {
		case opRaw:
		case opSmoothedLevel:
			smoothSeen[c.res] = true
		default:
			resSeen[c.res] = true
		}
	}
	for i, on := range resSeen {
		if on {
			x.resOn = append(x.resOn, i)
		}
	}
	for i, on := range smoothSeen {
		if on {
			x.smoothOn = append(x.smoothOn, i)
		}
	}
	return x, nil
}

// Schema returns the schema the extractor was compiled from.
func (x *RowExtractor) Schema() *Schema { return x.s }

// Step consumes one checkpoint and returns the feature row, aligned with
// the schema's Attrs. The returned slice is the extractor's internal buffer:
// it is valid until the next Step and must not be modified. Callers that
// need to keep a row must copy it (dataset.Append already does).
func (x *RowExtractor) Step(cp monitor.Checkpoint) []float64 {
	x.cp = cp
	return x.StepInto(&x.cp, x.row)
}

// StepInto is Step writing the feature row into dst (len >= the schema's
// NumAttrs) instead of the extractor's internal buffer, so many streams can
// extract into one contiguous struct-of-arrays batch (RowBatch) per shard
// tick. The checkpoint is read through the pointer and not retained; dst is
// returned truncated to the row width. Entries outside a projected
// extractor's column set are left untouched.
func (x *RowExtractor) StepInto(cp *monitor.Checkpoint, dst []float64) []float64 {
	s := x.s
	vec := cp.Vec()
	for _, i := range x.resOn {
		var lvl float64
		if idx := x.resIdx[i]; idx >= 0 {
			lvl = vec[idx]
		} else {
			lvl = s.resources[i].Level(cp)
		}
		// Errors can only come from non-finite values or time going
		// backwards; checkpoints are produced by the monitor in time order
		// with finite values, and a defensive drop of one speed sample is
		// preferable to aborting an on-line prediction loop.
		_ = x.trackers[i].Observe(cp.TimeSec, lvl)
		x.level[i] = lvl
		swa := x.trackers[i].SWA()
		x.swa[i] = swa
		// The shared intermediates of the derived families, computed once per
		// resource. Pure functions of (lvl, swa), so hoisting them out of the
		// column loop is bit-identical to computing them per column.
		if x.needInv[i] {
			x.inv[i] = sliding.Inverse(swa)
		}
		if x.needLos[i] {
			x.los[i] = sliding.SafeDiv(lvl, swa)
		}
	}
	for _, i := range x.smoothOn {
		if idx := x.smoothIdx[i]; idx >= 0 {
			x.windows[i].Push(vec[idx])
		} else {
			x.windows[i].Push(s.smoothed[i].level(cp))
		}
	}
	th := cp.Throughput
	dst = dst[:len(s.cols)]
	for i := range x.rawProg {
		r := &x.rawProg[i]
		if r.idx >= 0 {
			dst[r.dst] = vec[r.idx]
		} else {
			dst[r.dst] = r.level(cp)
		}
	}
	for i := range x.derivedProg {
		d := &x.derivedProg[i]
		var v float64
		switch d.op {
		case opSpeed:
			v = x.swa[d.res]
		case opSpeedPerTH:
			v = sliding.SafeDiv(x.swa[d.res], th)
		case opInvSpeed:
			v = x.inv[d.res]
		case opLevelOverSpeed:
			v = x.los[d.res]
		case opInvSpeedPerTH:
			v = sliding.SafeDiv(x.inv[d.res], th)
		case opLevelOverSpeedPerTH:
			v = sliding.SafeDiv(x.los[d.res], th)
		case opSmoothedLevel:
			v = x.windows[d.res].Mean()
		}
		dst[d.dst] = v
	}
	return dst
}

// Reset clears all sliding-window state (e.g. after a rejuvenation action),
// reusing the existing buffers.
func (x *RowExtractor) Reset() {
	for _, t := range x.trackers {
		t.Reset()
	}
	for _, w := range x.windows {
		w.Reset()
	}
}

// SchemaBuilder assembles a Schema column by column. The builder records the
// first error and reports it from Build, so call sites can chain without
// per-call checks.
type SchemaBuilder struct {
	s    Schema
	seen map[string]bool
	err  error
}

// NewSchemaBuilder starts a schema with the given name and default SWA
// window length (<= 0 means DefaultWindowLength).
func NewSchemaBuilder(name string, windowLen int) *SchemaBuilder {
	if windowLen <= 0 {
		windowLen = DefaultWindowLength
	}
	return &SchemaBuilder{
		s:    Schema{name: name, window: windowLen},
		seen: map[string]bool{Target: true},
	}
}

func (b *SchemaBuilder) fail(format string, args ...any) *SchemaBuilder {
	if b.err == nil {
		b.err = fmt.Errorf("features: schema %q: "+format, append([]any{b.s.name}, args...)...)
	}
	return b
}

func (b *SchemaBuilder) addCol(c column) *SchemaBuilder {
	if b.err != nil {
		return b
	}
	if c.name == "" {
		return b.fail("column with empty name")
	}
	if b.seen[c.name] {
		return b.fail("duplicate column %q", c.name)
	}
	b.seen[c.name] = true
	if c.op == opRaw {
		c.idx = fieldIndexOf(c.level)
	}
	b.s.cols = append(b.s.cols, c)
	b.s.attrs = append(b.s.attrs, c.name)
	return b
}

// Resource registers a speed-tracked resource. It emits no columns by
// itself; the derived-family methods reference it by Key.
func (b *SchemaBuilder) Resource(d ResourceDescriptor) *SchemaBuilder {
	if b.err != nil {
		return b
	}
	if d.Key == "" {
		return b.fail("resource with empty key")
	}
	if d.Level == nil {
		return b.fail("resource %q has no level accessor", d.Key)
	}
	if b.s.resourceIndex(d.Key) >= 0 {
		return b.fail("duplicate resource %q", d.Key)
	}
	b.s.resources = append(b.s.resources, d)
	b.s.resIdx = append(b.s.resIdx, fieldIndexOf(d.Level))
	return b
}

// Raw appends a raw column read straight off the checkpoint.
func (b *SchemaBuilder) Raw(name, unit string, level LevelFunc) *SchemaBuilder {
	return b.RawFor("", name, unit, level)
}

// RawFor is Raw with an owning resource key: WithoutResources(key) drops the
// column along with the resource's derived metrics. The owner must already
// be registered, so a typo'd key cannot silently survive a later exclusion.
func (b *SchemaBuilder) RawFor(owner, name, unit string, level LevelFunc) *SchemaBuilder {
	if b.err != nil {
		return b
	}
	if level == nil {
		return b.fail("raw column %q has no accessor", name)
	}
	if owner != "" && b.s.resourceIndex(owner) < 0 {
		return b.fail("raw column %q owned by unknown resource %q", name, owner)
	}
	return b.addCol(column{name: name, op: opRaw, res: -1, level: level, owner: owner, unit: unit})
}

// derived appends one family column per key, in the given key order.
func (b *SchemaBuilder) derived(op colOp, nameOf func(d ResourceDescriptor) string, keys []string) *SchemaBuilder {
	for _, key := range keys {
		if b.err != nil {
			return b
		}
		i := b.s.resourceIndex(key)
		if i < 0 {
			return b.fail("derived column references unknown resource %q", key)
		}
		b.addCol(column{name: nameOf(b.s.resources[i]), op: op, res: i, owner: key})
	}
	return b
}

// Speeds appends "swa_speed_<key>" columns: the sliding-window-averaged
// consumption speed of each resource.
func (b *SchemaBuilder) Speeds(keys ...string) *SchemaBuilder {
	return b.derived(opSpeed, func(d ResourceDescriptor) string { return "swa_speed_" + d.Key }, keys)
}

// SpeedsPerThroughput appends "swa_speed_<key>_per_th" columns: the SWA
// speed normalised by throughput.
func (b *SchemaBuilder) SpeedsPerThroughput(keys ...string) *SchemaBuilder {
	return b.derived(opSpeedPerTH, func(d ResourceDescriptor) string { return "swa_speed_" + d.Key + "_per_th" }, keys)
}

// InverseSpeeds appends "inv_swa_speed_<key>" columns: seconds per unit of
// resource consumed.
func (b *SchemaBuilder) InverseSpeeds(keys ...string) *SchemaBuilder {
	return b.derived(opInvSpeed, func(d ResourceDescriptor) string { return "inv_swa_speed_" + d.Key }, keys)
}

// LevelsOverSpeed appends "<level>_over_swa" columns: the current level
// divided by the SWA speed.
func (b *SchemaBuilder) LevelsOverSpeed(keys ...string) *SchemaBuilder {
	return b.derived(opLevelOverSpeed, func(d ResourceDescriptor) string { return d.levelName() + "_over_swa" }, keys)
}

// InverseSpeedsPerThroughput appends "inv_swa_per_th_<key>" columns.
func (b *SchemaBuilder) InverseSpeedsPerThroughput(keys ...string) *SchemaBuilder {
	return b.derived(opInvSpeedPerTH, func(d ResourceDescriptor) string { return "inv_swa_per_th_" + d.Key }, keys)
}

// LevelsOverSpeedPerThroughput appends "r_over_swa_per_th_<key>" columns.
func (b *SchemaBuilder) LevelsOverSpeedPerThroughput(keys ...string) *SchemaBuilder {
	return b.derived(opLevelOverSpeedPerTH, func(d ResourceDescriptor) string { return "r_over_swa_per_th_" + d.Key }, keys)
}

// SpeedDerivatives appends, for each key, the complete derived-metric family
// in canonical order: SWA speed, speed per throughput, inverse speed, level
// over speed, inverse speed per throughput, and level over speed per
// throughput. New resources typically use this; the legacy Table 2 layout
// interleaves families across resources and calls the family methods
// directly.
func (b *SchemaBuilder) SpeedDerivatives(keys ...string) *SchemaBuilder {
	for _, key := range keys {
		b.Speeds(key).
			SpeedsPerThroughput(key).
			InverseSpeeds(key).
			LevelsOverSpeed(key).
			InverseSpeedsPerThroughput(key).
			LevelsOverSpeedPerThroughput(key)
	}
	return b
}

// SmoothedLevel appends a column holding the SWA-smoothed raw level.
func (b *SchemaBuilder) SmoothedLevel(name string, level LevelFunc) *SchemaBuilder {
	return b.SmoothedLevelFor("", name, level)
}

// SmoothedLevelFor is SmoothedLevel with an owning resource key; like
// RawFor, the owner must already be registered.
func (b *SchemaBuilder) SmoothedLevelFor(owner, name string, level LevelFunc) *SchemaBuilder {
	if b.err != nil {
		return b
	}
	if level == nil {
		return b.fail("smoothed column %q has no accessor", name)
	}
	if owner != "" && b.s.resourceIndex(owner) < 0 {
		return b.fail("smoothed column %q owned by unknown resource %q", name, owner)
	}
	idx := len(b.s.smoothed)
	b.s.smoothed = append(b.s.smoothed, smoothedSpec{name: name, owner: owner, level: level})
	b.s.smoothIdx = append(b.s.smoothIdx, fieldIndexOf(level))
	return b.addCol(column{name: name, op: opSmoothedLevel, res: idx, owner: owner})
}

// Build finalises the schema.
func (b *SchemaBuilder) Build() (*Schema, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.s.cols) == 0 {
		return nil, fmt.Errorf("features: schema %q has no columns", b.s.name)
	}
	out := b.s
	return &out, nil
}

// MustBuild is Build for package-level schema construction; it panics on
// error (an invalid built-in schema is a programming error).
func (b *SchemaBuilder) MustBuild() *Schema {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// --- schema registry ------------------------------------------------------

var (
	schemaMu  sync.RWMutex
	schemaReg = map[string]*Schema{}
)

// RegisterSchema adds a schema to the registry. Schema names are stable
// identifiers (CLI -schema flags, scenario declarations), so empty or
// duplicate names fail.
func RegisterSchema(s *Schema) error {
	if s == nil {
		return fmt.Errorf("features: register nil schema")
	}
	if s.name == "" {
		return fmt.Errorf("features: schema with empty name")
	}
	schemaMu.Lock()
	defer schemaMu.Unlock()
	if _, ok := schemaReg[s.name]; ok {
		return fmt.Errorf("features: schema %q already registered", s.name)
	}
	schemaReg[s.name] = s
	return nil
}

// mustRegisterSchema registers a built-in schema at init time.
func mustRegisterSchema(s *Schema) *Schema {
	if err := RegisterSchema(s); err != nil {
		panic(err)
	}
	return s
}

// LookupSchema returns the registered schema with the given name; the error
// for an unknown name lists every valid one.
func LookupSchema(name string) (*Schema, error) {
	schemaMu.RLock()
	defer schemaMu.RUnlock()
	s, ok := schemaReg[name]
	if !ok {
		return nil, fmt.Errorf("features: unknown schema %q (known: %s)",
			name, strings.Join(schemaNamesLocked(), ", "))
	}
	return s, nil
}

// SchemaNames returns the registered schema names in sorted order.
func SchemaNames() []string {
	schemaMu.RLock()
	defer schemaMu.RUnlock()
	return schemaNamesLocked()
}

func schemaNamesLocked() []string {
	names := make([]string, 0, len(schemaReg))
	for name := range schemaReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
