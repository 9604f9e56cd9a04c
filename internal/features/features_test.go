package features

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"agingpred/internal/monitor"
	"agingpred/internal/testbed"
)

// syntheticSeries builds a series with a perfectly linear memory leak so the
// derived features have known values.
func syntheticSeries(n int, leakPerCheckpointMB float64) *monitor.Series {
	s := &monitor.Series{
		Name:        "synthetic",
		IntervalSec: 15,
		Workload:    100,
		Crashed:     true,
	}
	crashTime := float64(n) * 15
	s.CrashTimeSec = crashTime
	for i := 1; i <= n; i++ {
		t := float64(i) * 15
		cp := monitor.Checkpoint{
			TimeSec:         t,
			Throughput:      10,
			Workload:        100,
			ResponseTimeSec: 0.05,
			SystemLoad:      2,
			DiskUsedMB:      12000 + float64(i),
			SwapFreeMB:      2048,
			NumProcesses:    117,
			SystemMemUsedMB: 1000 + leakPerCheckpointMB*float64(i),
			TomcatMemUsedMB: 500 + leakPerCheckpointMB*float64(i),
			NumThreads:      250,
			NumHTTPConns:    10,
			NumMySQLConns:   8,
			YoungMaxMB:      128,
			OldMaxMB:        832,
			YoungUsedMB:     40,
			OldUsedMB:       200 + leakPerCheckpointMB*float64(i),
			YoungPct:        31,
			OldPct:          (200 + leakPerCheckpointMB*float64(i)) / 832 * 100,
			TTFSec:          crashTime - t,
		}
		s.Checkpoints = append(s.Checkpoints, cp)
	}
	return s
}

// schemaAttrs returns the attribute list of the registered schema name.
func schemaAttrs(t *testing.T, name string) []string {
	t.Helper()
	s, err := LookupSchema(name)
	if err != nil {
		t.Fatal(err)
	}
	return s.Attrs()
}

func TestVariableSets(t *testing.T) {
	full := schemaAttrs(t, FullSchemaName)
	noHeap := schemaAttrs(t, NoHeapSchemaName)
	heapFocus := schemaAttrs(t, HeapFocusSchemaName)

	if len(full) != len(allVariables) {
		t.Fatalf("full set has %d variables, want %d", len(full), len(allVariables))
	}
	if len(noHeap) != len(full)-len(heapRelated) {
		t.Fatalf("no-heap set has %d variables, want %d", len(noHeap), len(full)-len(heapRelated))
	}
	if len(heapFocus) != len(full)-len(processMemRelated) {
		t.Fatalf("heap-focus set has %d variables, want %d", len(heapFocus), len(full)-len(processMemRelated))
	}
	// The full Table 2 list has 49 variables plus the target.
	if len(full) != 49 {
		t.Fatalf("full set has %d variables, want 49", len(full))
	}
	for _, v := range noHeap {
		if heapRelated[v] {
			t.Fatalf("no-heap set contains heap variable %q", v)
		}
	}
	for _, v := range heapFocus {
		if processMemRelated[v] {
			t.Fatalf("heap-focus set contains process-memory variable %q", v)
		}
	}
	// Heap-focus keeps the Java-heap evolution variables.
	keep := map[string]bool{}
	for _, v := range heapFocus {
		keep[v] = true
	}
	for _, want := range []string{varYoungUsed, varOldUsed, varSWASpeedOld, varInvSWAOld, varOldOverSWA} {
		if !keep[want] {
			t.Fatalf("heap-focus set is missing %q", want)
		}
	}
	// No duplicates in any set.
	for _, set := range [][]string{full, noHeap, heapFocus} {
		seen := map[string]bool{}
		for _, v := range set {
			if seen[v] {
				t.Fatalf("duplicate variable %q", v)
			}
			seen[v] = true
		}
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := fullSchema.Extract(nil); err == nil {
		t.Fatalf("Extract(nil) succeeded")
	}
	if _, err := fullSchema.Extract(&monitor.Series{Name: "empty"}); err == nil {
		t.Fatalf("Extract of empty series succeeded")
	}
	if _, err := fullSchema.ExtractAll("x", nil); err == nil {
		t.Fatalf("ExtractAll with no series succeeded")
	}
}

func TestExtractLinearLeakFeatures(t *testing.T) {
	const leakPerCP = 2.0 // MB per 15 s checkpoint
	s := syntheticSeries(100, leakPerCP)
	ds, err := fullSchema.Extract(s)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if ds.Len() != 100 {
		t.Fatalf("dataset has %d instances, want 100", ds.Len())
	}
	if ds.NumAttrs() != 49 || ds.Target() != Target {
		t.Fatalf("schema wrong: %d attrs, target %q", ds.NumAttrs(), ds.Target())
	}
	// After the window warms up, the SWA speed of the old zone must equal the
	// true leak rate (2 MB / 15 s).
	wantSpeed := leakPerCP / 15
	col := ds.AttrIndex(varSWASpeedOld)
	if col < 0 {
		t.Fatalf("missing %q column", varSWASpeedOld)
	}
	got := ds.Value(50, col)
	if math.Abs(got-wantSpeed) > 1e-9 {
		t.Fatalf("SWA old-zone speed = %v, want %v", got, wantSpeed)
	}
	// Tomcat memory speed is identical in this synthetic series.
	if got := ds.Value(50, ds.AttrIndex(varSWASpeedTomcatMem)); math.Abs(got-wantSpeed) > 1e-9 {
		t.Fatalf("SWA tomcat speed = %v, want %v", got, wantSpeed)
	}
	// Threads are constant: their SWA speed must be zero and the inverse
	// clamped to the safe-division limit.
	if got := ds.Value(50, ds.AttrIndex(varSWASpeedThreads)); got != 0 {
		t.Fatalf("threads SWA speed = %v, want 0", got)
	}
	if got := ds.Value(50, ds.AttrIndex(varInvSWAThreads)); got < 1e5 {
		t.Fatalf("inverse of zero speed = %v, want the clamp limit", got)
	}
	// The throughput-normalised speed is speed/10.
	if got := ds.Value(50, ds.AttrIndex(varSWASpeedOldPerTH)); math.Abs(got-wantSpeed/10) > 1e-9 {
		t.Fatalf("old speed per TH = %v, want %v", got, wantSpeed/10)
	}
	// SWA of a constant response time equals that constant.
	if got := ds.Value(50, ds.AttrIndex(varSWAResponseTime)); math.Abs(got-0.05) > 1e-9 {
		t.Fatalf("SWA response time = %v, want 0.05", got)
	}
	// Targets are the TTF labels.
	if got := ds.TargetValue(0); got != s.Checkpoints[0].TTFSec {
		t.Fatalf("target[0] = %v, want %v", got, s.Checkpoints[0].TTFSec)
	}
}

func TestExtractVariableSetsShapes(t *testing.T) {
	s := syntheticSeries(30, 1)
	for _, name := range []string{FullSchemaName, NoHeapSchemaName, HeapFocusSchemaName} {
		schema, err := LookupSchema(name)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := schema.Extract(s)
		if err != nil {
			t.Fatalf("Extract(%s): %v", name, err)
		}
		if ds.NumAttrs() != len(schema.Attrs()) {
			t.Fatalf("schema %s: %d attrs, want %d", name, ds.NumAttrs(), len(schema.Attrs()))
		}
		if ds.Len() != 30 {
			t.Fatalf("schema %s: %d instances", name, ds.Len())
		}
	}
}

func TestExtractAllConcatenates(t *testing.T) {
	a := syntheticSeries(20, 1)
	a.Name = "a"
	b := syntheticSeries(30, 2)
	b.Name = "b"
	ds, err := fullSchema.ExtractAll("merged", []*monitor.Series{a, b})
	if err != nil {
		t.Fatalf("ExtractAll: %v", err)
	}
	if ds.Len() != 50 {
		t.Fatalf("merged dataset has %d instances, want 50", ds.Len())
	}
	if ds.Relation != "merged" {
		t.Fatalf("relation = %q", ds.Relation)
	}
}

func TestStreamMatchesBatch(t *testing.T) {
	s := syntheticSeries(60, 1.5)
	batch, err := fullSchema.Extract(s)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	stream := fullSchema.Stream()
	attrs := stream.Schema().Attrs()
	if len(attrs) != batch.NumAttrs() {
		t.Fatalf("stream attrs = %d, batch = %d", len(attrs), batch.NumAttrs())
	}
	for i, cp := range s.Checkpoints {
		row := stream.Step(cp)
		want := batch.Row(i)
		for j := range row {
			if math.Abs(row[j]-want[j]) > 1e-9 {
				t.Fatalf("checkpoint %d attr %q: stream %v, batch %v", i, attrs[j], row[j], want[j])
			}
		}
	}
}

func TestStreamReset(t *testing.T) {
	s := syntheticSeries(30, 1)
	stream := fullSchema.WithWindow(6).Stream()
	for _, cp := range s.Checkpoints {
		stream.Step(cp)
	}
	stream.Reset()
	// After a reset the speed history is gone: the first pushed checkpoint
	// yields zero SWA speeds again.
	row := stream.Step(s.Checkpoints[0])
	idx := -1
	for i, a := range stream.Schema().Attrs() {
		if a == varSWASpeedOld {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("missing %q", varSWASpeedOld)
	}
	if row[idx] != 0 {
		t.Fatalf("SWA speed after reset = %v, want 0", row[idx])
	}
}

func TestExtractFromRealTestbedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed run takes a second")
	}
	res, err := testbed.Run(testbed.RunConfig{
		Name:        "features-int",
		Seed:        10,
		EBs:         100,
		Phases:      testbed.ConstantLeakPhases(15),
		MaxDuration: 3 * time.Hour,
	})
	if err != nil {
		t.Fatalf("testbed.Run: %v", err)
	}
	if !res.Crashed {
		t.Fatalf("aging run did not crash")
	}
	ds, err := fullSchema.Extract(res.Series)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if ds.Len() != res.Series.Len() {
		t.Fatalf("dataset size %d != series size %d", ds.Len(), res.Series.Len())
	}
	// The Tomcat-memory SWA speed should be positive once the window warms up
	// (the leak dominates).
	col := ds.AttrIndex(varSWASpeedTomcatMem)
	positives := 0
	for i := 20; i < ds.Len(); i++ {
		if ds.Value(i, col) > 0 {
			positives++
		}
	}
	if positives < (ds.Len()-20)/2 {
		t.Fatalf("tomcat memory SWA speed positive at only %d/%d checkpoints of a leaking run", positives, ds.Len()-20)
	}
	// Targets decrease towards zero.
	if ds.TargetValue(0) <= ds.TargetValue(ds.Len()-1) {
		t.Fatalf("TTF labels do not decrease: first %v, last %v", ds.TargetValue(0), ds.TargetValue(ds.Len()-1))
	}
	if ds.TargetValue(ds.Len()-1) > 30 {
		t.Fatalf("last checkpoint TTF = %v, want close to crash", ds.TargetValue(ds.Len()-1))
	}
}

// jittered returns n checkpoints of a linear-leak series with noise added to
// every gauge down to the last mantissa bit, so float rounding in the sliding
// sums differs from push to push.
func jittered(n int, seed uint64) []monitor.Checkpoint {
	cps := syntheticSeries(n, 1).Checkpoints
	r := rand.New(rand.NewPCG(seed, 1))
	for c := range cps {
		v := cps[c].Vec()
		for i := 1; i < monitor.NumFields; i++ { // v[0] is the clock
			v[i] += 1e-3 * (1 + math.Abs(v[i])) * r.NormFloat64()
		}
	}
	return cps
}

// TestRowExtractorResetIsFresh pins reset ≡ fresh for the compiled extractor:
// after any prefix and a Reset, every feature row is bit-for-bit the row of a
// fresh extractor, across the windows' 4096-push sum recomputations.
func TestRowExtractorResetIsFresh(t *testing.T) {
	schema := fullSchema
	for _, prefix := range []int{1, 4095, 4097, 6000} {
		reused := schema.Stream()
		for _, cp := range jittered(prefix, uint64(prefix)) {
			reused.Step(cp)
		}
		reused.Reset()
		fresh := schema.Stream()
		for i, cp := range jittered(8300, 7) {
			got, want := reused.Step(cp), fresh.Step(cp)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("reset after %d checkpoints: checkpoint %d attr %q = %v, fresh extractor %v",
						prefix, i, schema.Attrs()[j], got[j], want[j])
				}
			}
		}
	}
}
