// Package features turns monitored checkpoint series into the training and
// test datasets of the paper: the variable set of Table 2, including all the
// derived metrics built on sliding-window-averaged consumption speeds.
//
// Table 2 lists three groups of variables:
//
//   - raw metrics sampled directly from the system (throughput, workload,
//     response time, load, disk, swap, processes, system memory, Tomcat
//     memory, threads, connection counts, and the per-zone heap figures);
//   - derived metrics built from the consumption speed of every monitored
//     resource, smoothed with a sliding-window average (SWA): the SWA speed
//     itself, its inverse, the speed normalised by throughput, the resource
//     level divided by its SWA speed, and the combinations of those; and
//   - SWA-smoothed levels of a few resources (response time, throughput,
//     system memory, Tomcat memory).
//
// The target variable is the time to failure.
//
// # The schema registry
//
// The variable lists are not hardcoded: they are generated from a Schema — a
// compiled, named feature layout assembled from ResourceDescriptors (see
// schema.go). Each descriptor names a monitored resource (key, unit,
// direction, SWA window, level accessor) and the schema derives the paper's
// metric families from it generically. The built-in schemas are:
//
//   - "full"       — the complete Table 2 list (experiments 4.2–4.4);
//   - "no-heap"    — without the per-zone heap variables (experiment 4.1);
//   - "heap-focus" — experiment 4.3's expert feature selection, with the
//     Tomcat-process and system-memory variables removed;
//   - "full+conn"  — "full" plus the database-connection speed derivatives
//     the paper's list lacks (the conn-leak feature gap).
//
// New workloads register their own schemas (RegisterSchema) with their own
// resources; nothing in the learning stack is tied to the Table 2 list. The
// first three are pinned byte-identical to the original hard-coded Table 2
// lists by schema_regression_test.go.
//
// Adding a monitored resource is one descriptor plus the derived families it
// should appear in:
//
//	b := features.NewSchemaBuilder("full+fd", features.DefaultWindowLength)
//	// ... the existing resources and columns ...
//	b.Resource(features.ResourceDescriptor{
//	    Key: "fds", Unit: "descriptors", Direction: features.Growing,
//	    Level: func(cp *monitor.Checkpoint) float64 { return cp.NumHTTPConns },
//	})
//	b.Raw("num_fds", "descriptors", func(cp *monitor.Checkpoint) float64 { return cp.NumHTTPConns })
//	b.SpeedDerivatives("fds") // swa_speed_fds, inv_swa_speed_fds, ...
//	schema := b.MustBuild()
//	features.RegisterSchema(schema)
//
// Different experiments use different subsets (the per-experiment columns of
// Table 2): experiment 4.1 omits the heap-zone information, experiment 4.3's
// "feature selection" variant removes every variable related to Tomcat and
// system memory so the model concentrates on the Java-heap evolution.
package features

// DefaultWindowLength is the sliding-window length (in checkpoints) used to
// smooth consumption speeds. Twelve 15-second marks — the paper quantifies
// the resulting detection delay as "12 marks * 15 seconds per mark, 180
// seconds" in Section 4.2.
const DefaultWindowLength = 12

// Target is the name of the target attribute in every generated dataset.
const Target = "time_to_failure"
