package features

import "agingpred/internal/monitor"

// The built-in schemas. The Table 2 layout groups columns by derived family
// and, inside each family, orders resources the way the paper's table does —
// which is why the builder below calls the family methods explicitly instead
// of SpeedDerivatives. The regression test in schema_regression_test.go pins
// full, no-heap and heap-focus byte-identical to the original hardcoded
// lists.

// Checkpoint accessors for the Table 2 raw metrics.
func cpThroughput(cp *monitor.Checkpoint) float64   { return cp.Throughput }
func cpWorkload(cp *monitor.Checkpoint) float64     { return cp.Workload }
func cpResponseTime(cp *monitor.Checkpoint) float64 { return cp.ResponseTimeSec }
func cpSystemLoad(cp *monitor.Checkpoint) float64   { return cp.SystemLoad }
func cpDiskUsed(cp *monitor.Checkpoint) float64     { return cp.DiskUsedMB }
func cpSwapFree(cp *monitor.Checkpoint) float64     { return cp.SwapFreeMB }
func cpNumProcesses(cp *monitor.Checkpoint) float64 { return cp.NumProcesses }
func cpSysMem(cp *monitor.Checkpoint) float64       { return cp.SystemMemUsedMB }
func cpTomcatMem(cp *monitor.Checkpoint) float64    { return cp.TomcatMemUsedMB }
func cpNumThreads(cp *monitor.Checkpoint) float64   { return cp.NumThreads }
func cpHTTPConns(cp *monitor.Checkpoint) float64    { return cp.NumHTTPConns }
func cpMySQLConns(cp *monitor.Checkpoint) float64   { return cp.NumMySQLConns }
func cpYoungMax(cp *monitor.Checkpoint) float64     { return cp.YoungMaxMB }
func cpOldMax(cp *monitor.Checkpoint) float64       { return cp.OldMaxMB }
func cpYoungUsed(cp *monitor.Checkpoint) float64    { return cp.YoungUsedMB }
func cpOldUsed(cp *monitor.Checkpoint) float64      { return cp.OldUsedMB }
func cpYoungPct(cp *monitor.Checkpoint) float64     { return cp.YoungPct }
func cpOldPct(cp *monitor.Checkpoint) float64       { return cp.OldPct }

// Schema names of the built-in schemas. The first three are the paper's
// variable lists.
const (
	FullSchemaName      = "full"
	NoHeapSchemaName    = "no-heap"
	HeapFocusSchemaName = "heap-focus"
	// FullConnSchemaName extends the full Table 2 set with the
	// database-connection speed derivatives the paper's variable list lacks
	// (the conn-leak feature gap documented in EXPERIMENTS.md).
	FullConnSchemaName = "full+conn"
)

// table2Builder assembles the paper's Table 2 schema; withConn appends the
// connection-speed derivative family at the end.
func table2Builder(name string, withConn bool) *SchemaBuilder {
	b := NewSchemaBuilder(name, DefaultWindowLength)
	// Speed-tracked resources.
	b.Resource(ResourceDescriptor{Key: "young", LevelName: "young_used", Unit: "MB", Direction: Growing, Level: cpYoungUsed})
	b.Resource(ResourceDescriptor{Key: "old", LevelName: "old_used", Unit: "MB", Direction: Growing, Level: cpOldUsed})
	b.Resource(ResourceDescriptor{Key: "threads", Unit: "threads", Direction: Growing, Level: cpNumThreads})
	b.Resource(ResourceDescriptor{Key: "tomcat_mem", Unit: "MB", Direction: Growing, Level: cpTomcatMem})
	b.Resource(ResourceDescriptor{Key: "sys_mem", Unit: "MB", Direction: Growing, Level: cpSysMem})
	if withConn {
		b.Resource(ResourceDescriptor{Key: "conns", Unit: "connections", Direction: Growing, Window: 40, Level: cpMySQLConns})
	}
	// Raw metrics.
	b.Raw("throughput", "req/s", cpThroughput)
	b.Raw("workload", "EBs", cpWorkload)
	b.Raw("response_time", "s", cpResponseTime)
	b.Raw("system_load", "workers", cpSystemLoad)
	b.Raw("disk_used_mb", "MB", cpDiskUsed)
	b.Raw("swap_free_mb", "MB", cpSwapFree)
	b.Raw("num_processes", "processes", cpNumProcesses)
	b.RawFor("sys_mem", "sys_mem_used_mb", "MB", cpSysMem)
	b.RawFor("tomcat_mem", "tomcat_mem_used_mb", "MB", cpTomcatMem)
	b.RawFor("threads", "num_threads", "threads", cpNumThreads)
	b.Raw("num_http_conns", "connections", cpHTTPConns)
	b.Raw("num_mysql_conns", "connections", cpMySQLConns)
	b.RawFor("young", "young_max_mb", "MB", cpYoungMax)
	b.RawFor("old", "old_max_mb", "MB", cpOldMax)
	b.RawFor("young", "young_used_mb", "MB", cpYoungUsed)
	b.RawFor("old", "old_used_mb", "MB", cpOldUsed)
	b.RawFor("young", "young_used_pct", "%", cpYoungPct)
	b.RawFor("old", "old_used_pct", "%", cpOldPct)
	// SWA consumption speeds.
	b.Speeds("young", "old", "threads", "tomcat_mem", "sys_mem")
	// Speeds normalised by throughput.
	b.SpeedsPerThroughput("tomcat_mem", "sys_mem", "young", "old")
	// Inverse speeds.
	b.InverseSpeeds("threads", "tomcat_mem", "sys_mem", "young", "old")
	// Resource level over SWA speed.
	b.LevelsOverSpeed("young", "old", "threads", "tomcat_mem", "sys_mem")
	// Inverse speed per throughput.
	b.InverseSpeedsPerThroughput("tomcat_mem", "sys_mem", "young", "old")
	// Level over speed, per throughput.
	b.LevelsOverSpeedPerThroughput("tomcat_mem", "sys_mem", "young", "old")
	// SWA-smoothed levels.
	b.SmoothedLevel("swa_response_time", cpResponseTime)
	b.SmoothedLevel("swa_throughput", cpThroughput)
	b.SmoothedLevelFor("sys_mem", "swa_sys_mem_used", cpSysMem)
	b.SmoothedLevelFor("tomcat_mem", "swa_tomcat_mem_used", cpTomcatMem)
	if withConn {
		// The connection resource brings its whole derived family, appended
		// after the Table 2 columns so the original ones keep their indices.
		b.SpeedDerivatives("conns")
	}
	return b
}

func mustWithout(s *Schema, name string, keys ...string) *Schema {
	out, err := s.WithoutResources(name, keys...)
	if err != nil {
		panic(err)
	}
	return out
}

// The built-in schemas, registered at init time.
var (
	fullSchema      = mustRegisterSchema(table2Builder(FullSchemaName, false).MustBuild())
	noHeapSchema    = mustRegisterSchema(mustWithout(fullSchema, NoHeapSchemaName, "young", "old"))
	heapFocusSchema = mustRegisterSchema(mustWithout(fullSchema, HeapFocusSchemaName, "tomcat_mem", "sys_mem"))
	fullConnSchema  = mustRegisterSchema(table2Builder(FullConnSchemaName, true).MustBuild())
)
