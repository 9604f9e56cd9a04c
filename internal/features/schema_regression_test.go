package features

import (
	"testing"

	"agingpred/internal/monitor"
	"agingpred/internal/sliding"
)

// This file pins the schema layer to the original hardcoded feature pipeline
// it replaced. The constants, exclusion maps, variable list and map-based
// extractor below are the pre-schema implementation, kept verbatim as test
// fixtures: each of the paper's three variable lists must yield an attribute list and a
// dataset byte-identical to its schema-based re-expression, or the golden
// experiment metrics would silently drift.

// Raw metric names (legacy fixture).
const (
	varThroughput   = "throughput"
	varWorkload     = "workload"
	varResponseTime = "response_time"
	varSystemLoad   = "system_load"
	varDiskUsed     = "disk_used_mb"
	varSwapFree     = "swap_free_mb"
	varNumProcesses = "num_processes"
	varSysMem       = "sys_mem_used_mb"
	varTomcatMem    = "tomcat_mem_used_mb"
	varNumThreads   = "num_threads"
	varHTTPConns    = "num_http_conns"
	varMySQLConns   = "num_mysql_conns"
	varYoungMax     = "young_max_mb"
	varOldMax       = "old_max_mb"
	varYoungUsed    = "young_used_mb"
	varOldUsed      = "old_used_mb"
	varYoungPct     = "young_used_pct"
	varOldPct       = "old_used_pct"
)

// Derived metric names (legacy fixture).
const (
	varSWASpeedYoung     = "swa_speed_young"
	varSWASpeedOld       = "swa_speed_old"
	varSWASpeedThreads   = "swa_speed_threads"
	varSWASpeedTomcatMem = "swa_speed_tomcat_mem"
	varSWASpeedSysMem    = "swa_speed_sys_mem"

	varSWASpeedTomcatMemPerTH = "swa_speed_tomcat_mem_per_th"
	varSWASpeedSysMemPerTH    = "swa_speed_sys_mem_per_th"
	varSWASpeedYoungPerTH     = "swa_speed_young_per_th"
	varSWASpeedOldPerTH       = "swa_speed_old_per_th"

	varInvSWAThreads   = "inv_swa_speed_threads"
	varInvSWATomcatMem = "inv_swa_speed_tomcat_mem"
	varInvSWASysMem    = "inv_swa_speed_sys_mem"
	varInvSWAYoung     = "inv_swa_speed_young"
	varInvSWAOld       = "inv_swa_speed_old"

	varYoungOverSWA     = "young_used_over_swa"
	varOldOverSWA       = "old_used_over_swa"
	varThreadsOverSWA   = "threads_over_swa"
	varTomcatMemOverSWA = "tomcat_mem_over_swa"
	varSysMemOverSWA    = "sys_mem_over_swa"

	varInvSWAPerTHTomcatMem = "inv_swa_per_th_tomcat_mem"
	varInvSWAPerTHSysMem    = "inv_swa_per_th_sys_mem"
	varInvSWAPerTHYoung     = "inv_swa_per_th_young"
	varInvSWAPerTHOld       = "inv_swa_per_th_old"

	varROverSWAPerTHTomcatMem = "r_over_swa_per_th_tomcat_mem"
	varROverSWAPerTHSysMem    = "r_over_swa_per_th_sys_mem"
	varROverSWAPerTHYoung     = "r_over_swa_per_th_young"
	varROverSWAPerTHOld       = "r_over_swa_per_th_old"

	varSWAResponseTime = "swa_response_time"
	varSWAThroughput   = "swa_throughput"
	varSWASysMem       = "swa_sys_mem_used"
	varSWATomcatMem    = "swa_tomcat_mem_used"
)

// heapRelated are the variables excluded by the no-heap list (legacy
// fixture).
var heapRelated = map[string]bool{
	varYoungMax: true, varOldMax: true,
	varYoungUsed: true, varOldUsed: true,
	varYoungPct: true, varOldPct: true,
	varSWASpeedYoung: true, varSWASpeedOld: true,
	varSWASpeedYoungPerTH: true, varSWASpeedOldPerTH: true,
	varInvSWAYoung: true, varInvSWAOld: true,
	varYoungOverSWA: true, varOldOverSWA: true,
	varInvSWAPerTHYoung: true, varInvSWAPerTHOld: true,
	varROverSWAPerTHYoung: true, varROverSWAPerTHOld: true,
}

// processMemRelated are the variables removed by the heap-focus list
// (legacy fixture).
var processMemRelated = map[string]bool{
	varSysMem: true, varTomcatMem: true,
	varSWASpeedTomcatMem: true, varSWASpeedSysMem: true,
	varSWASpeedTomcatMemPerTH: true, varSWASpeedSysMemPerTH: true,
	varInvSWATomcatMem: true, varInvSWASysMem: true,
	varTomcatMemOverSWA: true, varSysMemOverSWA: true,
	varInvSWAPerTHTomcatMem: true, varInvSWAPerTHSysMem: true,
	varROverSWAPerTHTomcatMem: true, varROverSWAPerTHSysMem: true,
	varSWASysMem: true, varSWATomcatMem: true,
}

// allVariables is the complete Table 2 list in its original fixed order
// (legacy fixture).
var allVariables = []string{
	// Raw metrics.
	varThroughput, varWorkload, varResponseTime, varSystemLoad,
	varDiskUsed, varSwapFree, varNumProcesses,
	varSysMem, varTomcatMem, varNumThreads, varHTTPConns, varMySQLConns,
	varYoungMax, varOldMax, varYoungUsed, varOldUsed, varYoungPct, varOldPct,
	// SWA consumption speeds.
	varSWASpeedYoung, varSWASpeedOld,
	varSWASpeedThreads, varSWASpeedTomcatMem, varSWASpeedSysMem,
	// Speeds normalised by throughput.
	varSWASpeedTomcatMemPerTH, varSWASpeedSysMemPerTH,
	varSWASpeedYoungPerTH, varSWASpeedOldPerTH,
	// Inverse speeds.
	varInvSWAThreads, varInvSWATomcatMem, varInvSWASysMem,
	varInvSWAYoung, varInvSWAOld,
	// Resource level over SWA speed.
	varYoungOverSWA, varOldOverSWA,
	varThreadsOverSWA, varTomcatMemOverSWA, varSysMemOverSWA,
	// Inverse speed per throughput.
	varInvSWAPerTHTomcatMem, varInvSWAPerTHSysMem,
	varInvSWAPerTHYoung, varInvSWAPerTHOld,
	// Level over speed, per throughput.
	varROverSWAPerTHTomcatMem, varROverSWAPerTHSysMem,
	varROverSWAPerTHYoung, varROverSWAPerTHOld,
	// SWA-smoothed levels.
	varSWAResponseTime, varSWAThroughput, varSWASysMem, varSWATomcatMem,
}

// legacyVariables reproduces the original variable-list filter, keyed by
// the schema name each list became.
func legacyVariables(schema string) []string {
	out := make([]string, 0, len(allVariables))
	for _, v := range allVariables {
		switch schema {
		case NoHeapSchemaName:
			if heapRelated[v] {
				continue
			}
		case HeapFocusSchemaName:
			if processMemRelated[v] {
				continue
			}
		}
		out = append(out, v)
	}
	return out
}

// legacyState is the original map-based extraction state.
type legacyState struct {
	windowLen int

	speedYoung     *sliding.SpeedTracker
	speedOld       *sliding.SpeedTracker
	speedThreads   *sliding.SpeedTracker
	speedTomcatMem *sliding.SpeedTracker
	speedSysMem    *sliding.SpeedTracker

	levelResponse   *sliding.Window
	levelThroughput *sliding.Window
	levelSysMem     *sliding.Window
	levelTomcatMem  *sliding.Window
}

func newLegacyState(windowLen int) *legacyState {
	return &legacyState{
		windowLen:       windowLen,
		speedYoung:      sliding.NewSpeedTracker(windowLen),
		speedOld:        sliding.NewSpeedTracker(windowLen),
		speedThreads:    sliding.NewSpeedTracker(windowLen),
		speedTomcatMem:  sliding.NewSpeedTracker(windowLen),
		speedSysMem:     sliding.NewSpeedTracker(windowLen),
		levelResponse:   sliding.NewWindow(windowLen),
		levelThroughput: sliding.NewWindow(windowLen),
		levelSysMem:     sliding.NewWindow(windowLen),
		levelTomcatMem:  sliding.NewWindow(windowLen),
	}
}

// step is the original per-checkpoint feature computation, verbatim.
func (st *legacyState) step(cp monitor.Checkpoint) map[string]float64 {
	_ = st.speedYoung.Observe(cp.TimeSec, cp.YoungUsedMB)
	_ = st.speedOld.Observe(cp.TimeSec, cp.OldUsedMB)
	_ = st.speedThreads.Observe(cp.TimeSec, cp.NumThreads)
	_ = st.speedTomcatMem.Observe(cp.TimeSec, cp.TomcatMemUsedMB)
	_ = st.speedSysMem.Observe(cp.TimeSec, cp.SystemMemUsedMB)

	st.levelResponse.Push(cp.ResponseTimeSec)
	st.levelThroughput.Push(cp.Throughput)
	st.levelSysMem.Push(cp.SystemMemUsedMB)
	st.levelTomcatMem.Push(cp.TomcatMemUsedMB)

	th := cp.Throughput
	swaYoung := st.speedYoung.SWA()
	swaOld := st.speedOld.SWA()
	swaThreads := st.speedThreads.SWA()
	swaTomcat := st.speedTomcatMem.SWA()
	swaSys := st.speedSysMem.SWA()

	return map[string]float64{
		varThroughput:   cp.Throughput,
		varWorkload:     cp.Workload,
		varResponseTime: cp.ResponseTimeSec,
		varSystemLoad:   cp.SystemLoad,
		varDiskUsed:     cp.DiskUsedMB,
		varSwapFree:     cp.SwapFreeMB,
		varNumProcesses: cp.NumProcesses,
		varSysMem:       cp.SystemMemUsedMB,
		varTomcatMem:    cp.TomcatMemUsedMB,
		varNumThreads:   cp.NumThreads,
		varHTTPConns:    cp.NumHTTPConns,
		varMySQLConns:   cp.NumMySQLConns,
		varYoungMax:     cp.YoungMaxMB,
		varOldMax:       cp.OldMaxMB,
		varYoungUsed:    cp.YoungUsedMB,
		varOldUsed:      cp.OldUsedMB,
		varYoungPct:     cp.YoungPct,
		varOldPct:       cp.OldPct,

		varSWASpeedYoung:     swaYoung,
		varSWASpeedOld:       swaOld,
		varSWASpeedThreads:   swaThreads,
		varSWASpeedTomcatMem: swaTomcat,
		varSWASpeedSysMem:    swaSys,

		varSWASpeedTomcatMemPerTH: sliding.SafeDiv(swaTomcat, th),
		varSWASpeedSysMemPerTH:    sliding.SafeDiv(swaSys, th),
		varSWASpeedYoungPerTH:     sliding.SafeDiv(swaYoung, th),
		varSWASpeedOldPerTH:       sliding.SafeDiv(swaOld, th),

		varInvSWAThreads:   sliding.Inverse(swaThreads),
		varInvSWATomcatMem: sliding.Inverse(swaTomcat),
		varInvSWASysMem:    sliding.Inverse(swaSys),
		varInvSWAYoung:     sliding.Inverse(swaYoung),
		varInvSWAOld:       sliding.Inverse(swaOld),

		varYoungOverSWA:     sliding.SafeDiv(cp.YoungUsedMB, swaYoung),
		varOldOverSWA:       sliding.SafeDiv(cp.OldUsedMB, swaOld),
		varThreadsOverSWA:   sliding.SafeDiv(cp.NumThreads, swaThreads),
		varTomcatMemOverSWA: sliding.SafeDiv(cp.TomcatMemUsedMB, swaTomcat),
		varSysMemOverSWA:    sliding.SafeDiv(cp.SystemMemUsedMB, swaSys),

		varInvSWAPerTHTomcatMem: sliding.SafeDiv(sliding.Inverse(swaTomcat), th),
		varInvSWAPerTHSysMem:    sliding.SafeDiv(sliding.Inverse(swaSys), th),
		varInvSWAPerTHYoung:     sliding.SafeDiv(sliding.Inverse(swaYoung), th),
		varInvSWAPerTHOld:       sliding.SafeDiv(sliding.Inverse(swaOld), th),

		varROverSWAPerTHTomcatMem: sliding.SafeDiv(sliding.SafeDiv(cp.TomcatMemUsedMB, swaTomcat), th),
		varROverSWAPerTHSysMem:    sliding.SafeDiv(sliding.SafeDiv(cp.SystemMemUsedMB, swaSys), th),
		varROverSWAPerTHYoung:     sliding.SafeDiv(sliding.SafeDiv(cp.YoungUsedMB, swaYoung), th),
		varROverSWAPerTHOld:       sliding.SafeDiv(sliding.SafeDiv(cp.OldUsedMB, swaOld), th),

		varSWAResponseTime: st.levelResponse.Mean(),
		varSWAThroughput:   st.levelThroughput.Mean(),
		varSWASysMem:       st.levelSysMem.Mean(),
		varSWATomcatMem:    st.levelTomcatMem.Mean(),
	}
}

// TestSchemaMatchesLegacyVariableSets is the regression guard of the schema
// refactor: each of the paper's variable lists, re-expressed as a schema,
// must produce the identical attribute list and a bit-identical dataset on a
// noisy series.
func TestSchemaMatchesLegacyVariableSets(t *testing.T) {
	s := noisySeries(200)
	for _, name := range []string{FullSchemaName, NoHeapSchemaName, HeapFocusSchemaName} {
		t.Run(name, func(t *testing.T) {
			schema, err := LookupSchema(name)
			if err != nil {
				t.Fatalf("LookupSchema(%q): %v", name, err)
			}
			// Attribute lists must match the legacy filter exactly.
			wantAttrs := legacyVariables(name)
			gotAttrs := schema.Attrs()
			if len(gotAttrs) != len(wantAttrs) {
				t.Fatalf("schema %q has %d attrs, legacy set has %d", name, len(gotAttrs), len(wantAttrs))
			}
			for i := range wantAttrs {
				if gotAttrs[i] != wantAttrs[i] {
					t.Fatalf("schema %q attr %d = %q, legacy %q", name, i, gotAttrs[i], wantAttrs[i])
				}
			}
			// Datasets must be bit-identical to the legacy map-based
			// extraction.
			ds, err := schema.Extract(s)
			if err != nil {
				t.Fatalf("Extract: %v", err)
			}
			if ds.Len() != s.Len() {
				t.Fatalf("dataset has %d instances, want %d", ds.Len(), s.Len())
			}
			st := newLegacyState(DefaultWindowLength)
			for i, cp := range s.Checkpoints {
				ref := st.step(cp)
				row := ds.Row(i)
				for j, name := range wantAttrs {
					if row[j] != ref[name] {
						t.Fatalf("checkpoint %d attr %q: schema %v, legacy %v", i, name, row[j], ref[name])
					}
				}
				if ds.TargetValue(i) != cp.TTFSec {
					t.Fatalf("checkpoint %d target %v, want %v", i, ds.TargetValue(i), cp.TTFSec)
				}
			}
		})
	}
}

// noisySeries builds a deterministic but non-trivial series: every raw
// metric moves, including non-monotonic ones, so ratio clamps and negative
// speeds are exercised.
func noisySeries(n int) *monitor.Series {
	s := &monitor.Series{
		Name:        "noisy",
		IntervalSec: 15,
		Workload:    100,
		Crashed:     true,
	}
	crash := float64(n) * 15
	s.CrashTimeSec = crash
	for i := 1; i <= n; i++ {
		t := float64(i) * 15
		wob := float64(i%7) - 3 // small deterministic oscillation
		cp := monitor.Checkpoint{
			TimeSec:         t,
			Throughput:      10 + wob,
			Workload:        100 + 2*wob,
			ResponseTimeSec: 0.05 + 0.001*wob,
			SystemLoad:      2 + 0.1*wob,
			DiskUsedMB:      12000 + float64(i),
			SwapFreeMB:      2048 - 0.5*float64(i),
			NumProcesses:    117,
			SystemMemUsedMB: 1000 + 1.5*float64(i) + 4*wob,
			TomcatMemUsedMB: 500 + 1.5*float64(i) + 4*wob,
			NumThreads:      250 + 0.25*float64(i) + wob,
			NumHTTPConns:    10 + wob,
			NumMySQLConns:   8 + 0.1*float64(i) + 0.5*wob,
			YoungMaxMB:      128,
			OldMaxMB:        832,
			YoungUsedMB:     40 + 8*wob,
			OldUsedMB:       200 + 1.2*float64(i),
			YoungPct:        (40 + 8*wob) / 128 * 100,
			OldPct:          (200 + 1.2*float64(i)) / 832 * 100,
			TTFSec:          crash - t,
		}
		s.Checkpoints = append(s.Checkpoints, cp)
	}
	return s
}
