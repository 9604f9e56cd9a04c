// Package obs is the repository's observability core: a dependency-free
// metrics layer (atomic counters, gauges and fixed-bucket histograms behind a
// named registry, with Prometheus text-format exposition) plus a structured
// JSONL event journal (journal.go) for the discrete lifecycle events a
// serving fleet emits — drift trips, retrains, epoch swaps, rejuvenations,
// crashes.
//
// The design constraints come from the serving stack it instruments:
//
//   - Hot-path updates are allocation-free and branch-light. A Counter
//     increment is one atomic load (the global enable gate) plus one atomic
//     add; a Histogram observation adds a short bounds scan. Handles are
//     resolved once at package init, never per event.
//   - Metrics are observation-only. Nothing in the serving stack reads a
//     metric back to make a decision, so instrumentation cannot perturb the
//     deterministic simulations — the golden-report and
//     byte-identical-across-shard-counts tests run with instrumentation
//     compiled in and enabled.
//   - Registration is idempotent: asking the registry for an existing
//     (name, labels) pair returns the same handle, so independent packages —
//     and repeated fleet runs in one process — share series without
//     coordination. Counters and histograms therefore accumulate across runs
//     within a process, like any long-lived Prometheus target.
//
// The package-level Default registry is what the instrumented subsystems
// (internal/core, internal/fleet, internal/adapt, internal/rejuv) register
// into and what `agingfleet -listen` serves at /metrics; the root package
// re-exports it as agingpred.Metrics().
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled is the global instrumentation gate: when off, every Counter, Gauge
// and Histogram update is a no-op (one atomic load and a predictable branch).
// It exists so the instrumentation overhead itself can be measured honestly
// (BenchmarkFleet/obs-off against BenchmarkFleet/shards-4); serving runs
// leave it on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns the global instrumentation gate on or off. Exposition and
// registration always work; only updates are gated.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether instrumentation updates are currently recorded.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing counter. All methods are safe for
// concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down, stored as atomic bits.
// All methods are safe for concurrent use and allocation-free.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if enabled.Load() {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop; Set is cheaper when the caller knows the value).
func (g *Gauge) Add(delta float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observation counts per bucket plus a
// running sum, all atomics. Buckets are defined by their upper bounds
// (inclusive, Prometheus `le` semantics); one implicit +Inf bucket catches
// the overflow. Observe is safe for concurrent use and allocation-free.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Uint64
	total   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value. Values above every bound (and NaN) land in the
// +Inf bucket.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	i := 0
	// The negated comparison sends NaN to +Inf instead of bucket 0.
	for i < len(h.bounds) && !(v <= h.bounds[i]) {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LinearBuckets returns n bucket bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExpBuckets returns n bucket bounds start, start·factor, start·factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Label is one constant key/value label of a metric series.
type Label struct{ Key, Value string }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// metric is one registered series: a name, a rendered label set and exactly
// one of the three instrument types.
type metric struct {
	name   string
	labels string // rendered `{k="v",...}`, or ""
	kind   metricKind
	help   string

	c *Counter
	g *Gauge
	h *Histogram
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; registration takes the registry mutex, but the returned
// handles update lock-free — resolve them once, not per event.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{byKey: make(map[string]*metric)} }

// Default is the process-wide registry the instrumented subsystems register
// into and agingfleet -listen exposes.
var Default = NewRegistry()

// renderLabels validates and renders a label set in the given order.
func renderLabels(name string, labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if !labelRe.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l.Key, name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`=`)
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// register resolves or creates the series for (name, labels). Same key →
// same metric; a name re-registered with a different instrument kind is a
// programming error and panics.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *metric {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	rendered := renderLabels(name, labels)
	key := name + rendered
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", key, kind, m.kind))
		}
		return m
	}
	// Series of one name must agree on the instrument kind for the TYPE line.
	for _, m := range r.byKey {
		if m.name == name && m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
	}
	m := &metric{name: name, labels: rendered, kind: kind, help: help}
	r.byKey[key] = m
	return m
}

// Counter resolves or creates a counter series. Labels are optional constant
// labels; the same (name, labels) always returns the same handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, kindCounter, labels)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge resolves or creates a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, kindGauge, labels)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram resolves or creates a histogram series with the given bucket
// upper bounds (ascending; +Inf is implicit). An existing series keeps its
// original buckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	m := r.register(name, help, kindHistogram, labels)
	if m.h == nil {
		m.h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return m.h
}

// sorted returns the registered metrics ordered by (name, labels) — the
// stable exposition and snapshot order.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.byKey))
	for _, m := range r.byKey {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	return ms
}

// Names returns the distinct registered metric names, sorted. The docs gate
// uses it to require every series the subsystems register to be documented.
func (r *Registry) Names() []string {
	var names []string
	last := ""
	for _, m := range r.sorted() {
		if m.name != last {
			names = append(names, m.name)
			last = m.name
		}
	}
	return names
}

// formatFloat renders a float the way the Prometheus text format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// bucketSeries renders a histogram series name with the `le` label appended
// to its constant labels.
func bucketSeries(m *metric, le string) string {
	if m.labels == "" {
		return m.name + `_bucket{le="` + le + `"}`
	}
	return m.name + "_bucket" + m.labels[:len(m.labels)-1] + `,le="` + le + `"}`
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name then label set, with one
// HELP/TYPE header per metric name. Histograms render cumulative buckets plus
// the _sum and _count series, as the format requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastName := ""
	for _, m := range r.sorted() {
		if m.name != lastName {
			lastName = m.name
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case kindCounter:
			b.WriteString(m.name)
			b.WriteString(m.labels)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(m.c.Value(), 10))
			b.WriteByte('\n')
		case kindGauge:
			b.WriteString(m.name)
			b.WriteString(m.labels)
			b.WriteByte(' ')
			b.WriteString(formatFloat(m.g.Value()))
			b.WriteByte('\n')
		case kindHistogram:
			cum := uint64(0)
			for i, bound := range m.h.bounds {
				cum += m.h.counts[i].Load()
				fmt.Fprintf(&b, "%s %d\n", bucketSeries(m, formatFloat(bound)), cum)
			}
			cum += m.h.counts[len(m.h.bounds)].Load()
			fmt.Fprintf(&b, "%s %d\n", bucketSeries(m, "+Inf"), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", m.name, m.labels, formatFloat(m.h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", m.name, m.labels, m.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns the current value of every series, keyed by rendered
// series name (name plus labels). Histograms contribute their _sum and
// _count series. The map is a point-in-time copy, useful for embedding in a
// run report.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range r.sorted() {
		key := m.name + m.labels
		switch m.kind {
		case kindCounter:
			out[key] = float64(m.c.Value())
		case kindGauge:
			out[key] = m.g.Value()
		case kindHistogram:
			out[m.name+"_sum"+m.labels] = m.h.Sum()
			out[m.name+"_count"+m.labels] = float64(m.h.Count())
		}
	}
	return out
}

// Value returns the current value of the counter or gauge series with the
// given rendered name (name plus labels, e.g. `foo_total` or
// `foo_total{class="mem-leak"}`), and whether such a series exists. Histogram
// series are not addressable through Value.
func (r *Registry) Value(key string) (float64, bool) {
	r.mu.Lock()
	m, ok := r.byKey[key]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch m.kind {
	case kindCounter:
		return float64(m.c.Value()), true
	case kindGauge:
		return m.g.Value(), true
	default:
		return 0, false
	}
}
