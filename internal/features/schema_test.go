package features

import (
	"math"
	"strings"
	"testing"

	"agingpred/internal/monitor"
)

func TestSchemaRegistry(t *testing.T) {
	names := SchemaNames()
	for _, want := range []string{FullSchemaName, NoHeapSchemaName, HeapFocusSchemaName, FullConnSchemaName} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in schema %q not registered (have %v)", want, names)
		}
	}
	if _, err := LookupSchema("bogus"); err == nil {
		t.Fatalf("LookupSchema(bogus) succeeded")
	} else if !strings.Contains(err.Error(), FullConnSchemaName) {
		t.Fatalf("unknown-schema error does not list the valid names: %v", err)
	}
	if err := RegisterSchema(fullSchema); err == nil {
		t.Fatalf("duplicate registration succeeded")
	}
	if err := RegisterSchema(nil); err == nil {
		t.Fatalf("nil registration succeeded")
	}
}

func TestFullConnSchemaShape(t *testing.T) {
	full := fullSchema.Attrs()
	conn := fullConnSchema.Attrs()
	if len(conn) != len(full)+6 {
		t.Fatalf("full+conn has %d attrs, want %d (full) + 6", len(conn), len(full))
	}
	// The Table 2 prefix is unchanged, so models and datasets built on the
	// full schema keep their column indices.
	for i := range full {
		if conn[i] != full[i] {
			t.Fatalf("full+conn attr %d = %q, full = %q", i, conn[i], full[i])
		}
	}
	wantTail := []string{
		"swa_speed_conns", "swa_speed_conns_per_th", "inv_swa_speed_conns",
		"conns_over_swa", "inv_swa_per_th_conns", "r_over_swa_per_th_conns",
	}
	for i, want := range wantTail {
		if got := conn[len(full)+i]; got != want {
			t.Fatalf("full+conn tail attr %d = %q, want %q", i, got, want)
		}
	}
}

func TestFullConnSchemaSeesConnSlope(t *testing.T) {
	// A series with a perfectly linear connection leak: the SWA connection
	// speed column must settle on the true rate.
	s := &monitor.Series{Name: "conns", IntervalSec: 15}
	const perCP = 0.5 // connections per 15 s checkpoint
	for i := 1; i <= 60; i++ {
		s.Checkpoints = append(s.Checkpoints, monitor.Checkpoint{
			TimeSec:       float64(i) * 15,
			Throughput:    10,
			NumMySQLConns: 5 + perCP*float64(i),
			TTFSec:        1000,
		})
	}
	ds, err := fullConnSchema.Extract(s)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	col := ds.AttrIndex("swa_speed_conns")
	if col < 0 {
		t.Fatalf("missing swa_speed_conns column")
	}
	want := perCP / 15
	if got := ds.Value(40, col); math.Abs(got-want) > 1e-12 {
		t.Fatalf("swa_speed_conns = %v, want %v", got, want)
	}
	if got := ds.Value(40, ds.AttrIndex("inv_swa_speed_conns")); math.Abs(got-1/want) > 1e-6 {
		t.Fatalf("inv_swa_speed_conns = %v, want %v", got, 1/want)
	}
}

func TestWithoutResourcesErrors(t *testing.T) {
	if _, err := fullSchema.WithoutResources("x", "no-such-resource"); err == nil {
		t.Fatalf("WithoutResources with unknown key succeeded")
	}
}

func TestWithWindow(t *testing.T) {
	if got := fullSchema.WithWindow(fullSchema.WindowLength()); got != fullSchema {
		t.Fatalf("WithWindow(default) should return the same schema")
	}
	w40 := fullSchema.WithWindow(40)
	if w40.WindowLength() != 40 {
		t.Fatalf("WithWindow(40) window = %d", w40.WindowLength())
	}
	if w40.NumAttrs() != fullSchema.NumAttrs() {
		t.Fatalf("WithWindow changed the column count")
	}
	// A longer window reacts more slowly to a speed change; just verify the
	// two extractions differ (the window length is actually plumbed).
	s := noisySeries(100)
	a, err := fullSchema.Extract(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w40.Extract(s)
	if err != nil {
		t.Fatal(err)
	}
	col := a.AttrIndex("swa_speed_sys_mem")
	same := true
	for i := 0; i < a.Len(); i++ {
		if a.Value(i, col) != b.Value(i, col) {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("window length has no effect on the SWA speeds")
	}
}

func TestSchemaBuilderErrors(t *testing.T) {
	if _, err := NewSchemaBuilder("empty", 0).Build(); err == nil {
		t.Fatalf("empty schema built")
	}
	if _, err := NewSchemaBuilder("dup", 0).
		Raw("a", "", cpThroughput).Raw("a", "", cpWorkload).Build(); err == nil {
		t.Fatalf("duplicate column accepted")
	}
	if _, err := NewSchemaBuilder("unknown-res", 0).
		Raw("a", "", cpThroughput).Speeds("ghost").Build(); err == nil {
		t.Fatalf("derived column over unknown resource accepted")
	}
	if _, err := NewSchemaBuilder("dup-res", 0).
		Resource(ResourceDescriptor{Key: "r", Level: cpThroughput}).
		Resource(ResourceDescriptor{Key: "r", Level: cpThroughput}).
		Raw("a", "", cpThroughput).Build(); err == nil {
		t.Fatalf("duplicate resource accepted")
	}
	if _, err := NewSchemaBuilder("nil-level", 0).
		Resource(ResourceDescriptor{Key: "r"}).Build(); err == nil {
		t.Fatalf("resource without accessor accepted")
	}
	if _, err := NewSchemaBuilder("target-clash", 0).
		Raw(Target, "", cpThroughput).Build(); err == nil {
		t.Fatalf("column named like the target accepted")
	}
	if _, err := NewSchemaBuilder("typo-owner", 0).
		RawFor("sysmem", "sys_mem_used_mb", "MB", cpSysMem).Build(); err == nil {
		t.Fatalf("raw column with unknown owner accepted")
	}
	if _, err := NewSchemaBuilder("typo-owner-smooth", 0).
		Raw("a", "", cpThroughput).
		SmoothedLevelFor("sysmem", "swa_sys_mem_used", cpSysMem).Build(); err == nil {
		t.Fatalf("smoothed column with unknown owner accepted")
	}
}

// TestCompileRejectsBadColumns covers the projection's validation, which
// core.Model surfaces at bind time: an out-of-range or duplicate column is an
// error, never a silently wider or narrower program.
func TestCompileRejectsBadColumns(t *testing.T) {
	n := fullSchema.NumAttrs()
	for _, cols := range [][]int{{-1}, {n}, {0, 2, 0}} {
		if _, err := fullSchema.Compile(cols); err == nil {
			t.Errorf("Compile(%v) accepted", cols)
		}
	}
	if p, err := fullSchema.Compile([]int{}); err != nil || len(p.rawProg)+len(p.derivedProg)+len(p.res)+len(p.smooth) != 0 {
		t.Errorf("Compile(no columns) = %+v, %v; want an empty program", p, err)
	}
}

// TestRowExtractorZeroAlloc pins the hot-path guarantee the fleet relies on:
// once warm, Step performs no allocations per checkpoint.
func TestRowExtractorZeroAlloc(t *testing.T) {
	s := noisySeries(64)
	x := fullConnSchema.Stream()
	for _, cp := range s.Checkpoints {
		x.Step(cp) // warm up: fill the windows
	}
	cp := s.Checkpoints[len(s.Checkpoints)-1]
	allocs := testing.AllocsPerRun(100, func() {
		cp.TimeSec += 15
		x.Step(cp)
	})
	if allocs != 0 {
		t.Fatalf("RowExtractor.Step allocates %.1f objects per checkpoint, want 0", allocs)
	}
}

// BenchmarkSchemaRow measures the per-checkpoint cost of the compiled
// feature pipeline alone (no model), reporting ns/op and allocs/op.
func BenchmarkSchemaRow(b *testing.B) {
	for _, tc := range []struct {
		name   string
		schema *Schema
	}{
		{"full", fullSchema},
		{"full+conn", fullConnSchema},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := noisySeries(256)
			x := tc.schema.Stream()
			for _, cp := range s.Checkpoints {
				x.Step(cp)
			}
			cp := s.Checkpoints[len(s.Checkpoints)-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp.TimeSec += 15
				x.Step(cp)
			}
		})
	}
}
