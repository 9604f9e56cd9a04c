// Package agingpred predicts software-aging failures on-line, reproducing
// and extending "Adaptive on-line software aging prediction based on Machine
// Learning" (Alonso, Torres, Berral, Gavaldà — IEEE/IFIP DSN 2010).
//
// # The public API: Model and Session
//
// The paper's workflow is two-phase — train off-line on run-to-crash
// executions, predict on-line per server — and the API mirrors it with two
// types. A Model is the immutable result of training (an M5P model tree by
// default, with linear-regression and regression-tree baselines) bound to
// the feature schema it was trained under; it is safe for concurrent use and
// never mutated. A Session is the cheap per-stream sliding-window state
// created by Model.NewSession: one per monitored server, Observe per
// 15-second checkpoint, Reset after a rejuvenation. Steady-state
// Session.Observe performs zero allocations per checkpoint.
//
//	model, err := agingpred.Train(agingpred.Config{}, trainingSeries)
//	...
//	sess := model.NewSession()           // one per monitored server
//	for cp := range checkpoints {
//	    pred, _ := sess.Observe(cp)
//	    if pred.CrashExpected && pred.TTF < 10*time.Minute {
//	        triggerRejuvenation()
//	        sess.Reset()
//	    }
//	}
//
// # Adaptive serving: Supervisor and Stream
//
// A frozen model degrades permanently when the serving regime drifts from
// its training runs; adaptation is the paper's titular contribution.
// NewSupervisor wraps a Model as epoch 1 of an adaptive loop:
// Supervisor.NewStream creates the adaptive counterpart of a Session, which
// remembers each prediction until the stream's outcome resolves the labels
// (Stream.ResolveCrash scores them against the observed crash time and
// donates the labeled run to a bounded training buffer;
// Stream.ResolveCensored discards them after a rejuvenation). A
// sliding-window-MAE drift detector with a calibrated baseline and a
// trigger/clear hysteresis band decides when the model has gone stale; the
// Supervisor then retrains on a background goroutine via the same Train
// pipeline and publishes the result as a new model epoch through an atomic
// swap. Observe is never locked, and streams adopt the new epoch at their
// next Reset boundary:
//
//	sup, _ := agingpred.NewSupervisor(agingpred.AdaptConfig{Seed: trainingSeries}, model)
//	stream := sup.NewStream("server-42")
//	for cp := range checkpoints {
//	    pred, _ := stream.Observe(cp)       // lock-free; 0 allocs steady-state
//	    ...
//	}
//	stream.ResolveCrash(crashTimeSec)       // label feedback at the crash
//	sup.Adapt()                             // retrain + publish if drifted
//	stream.Reset()                          // adopt the new epoch
//
// See examples/adaptive for the full walkthrough and the "adaptive"
// scenario (agingbench -experiment adaptive) for the measured
// frozen-vs-adaptive comparison; agingfleet -adaptive runs the loop across
// a whole fleet.
//
// # Model persistence
//
// Models persist as versioned artifacts: SaveModel / Model.Encode write
// them, LoadModel / DecodeModel read them back with format-version,
// checksum and schema-compatibility checks, and the loaded model predicts
// bit-identically to the in-memory one. Train once, save the artifact, and
// serve it anywhere (`agingpredict -load model.bin`, `agingfleet -load
// model.bin`) without retraining.
//
// # What backs it
//
// The repository contains, as internal packages, everything the paper's
// evaluation depends on: the M5P learner (internal/m5p) with its baselines,
// the schema-driven Table 2 feature pipeline (internal/features — named
// Schemas compiled from ResourceDescriptors into an allocation-free column
// program; built-ins "full", "no-heap", "heap-focus" and "full+conn"), a
// discrete-event simulation of the paper's three-tier testbed (TPC-W
// workload, Tomcat-like application server, generational JVM heap,
// aging-fault injection), the accuracy metrics (MAE, S-MAE, PRE/POST-MAE),
// software-rejuvenation policies, a scenario engine reproducing every table
// and figure of the paper (internal/experiments), the adaptive-serving
// subsystem behind Supervisor (internal/adapt), and the fleet subsystem
// (internal/fleet) that serves thousands of simulated servers through
// sharded per-instance Sessions of one shared Model. ARCHITECTURE.md maps
// the packages to the paper's sections.
//
// The runnable entry points are cmd/agingsim, cmd/agingpredict,
// cmd/agingbench (scenario-matrix mode: `agingbench -experiment all
// -parallel 8 -seeds 1..8`) and cmd/agingfleet (`agingfleet -instances 1000
// -shards 8`); the examples/ directory holds guided walk-throughs
// (quickstart, saveload, adaptive, rejuvenation, rootcause, webapp-aging,
// fleet), and
// the top-level benchmarks in bench_test.go regenerate the paper's results
// via `go test -bench`. See README.md for the layout and EXPERIMENTS.md for
// the paper-vs-measured comparison.
package agingpred
