// Command agingfleet runs the fleet subsystem: a sharded online
// aging-prediction service over thousands of concurrently-simulated
// application-server instances with heterogeneous leak profiles, closing the
// monitor → predict → rejuvenate loop at fleet scale.
//
// A typical simulated day over a thousand servers:
//
//	agingfleet -instances 1000 -shards 8
//
// The shared model's feature schema comes from the features schema registry:
// -schema sets it fleet-wide, and -class-schema overrides it per instance
// class (one extra training run per distinct schema), e.g.
//
//	agingfleet -instances 1000 -class-schema conn-leak=full+conn
//
// gives the connection-leak class the connection-speed derivatives the
// paper's Table 2 set lacks while the rest of the fleet stays on "full".
//
// The shared model persists as a versioned artifact: -save trains it and
// writes it to disk, and -load serves a previously-saved artifact (e.g. from
// `agingpredict -save` or an earlier `agingfleet -save`) without retraining:
//
//	agingfleet -instances 1000 -save model.bin     # train once, keep the artifact
//	agingfleet -instances 5000 -load model.bin     # serve it, no retraining
//
// -adaptive turns on adaptive serving (the paper's titular contribution at
// fleet scale): every instance's predictions are scored against its
// eventually-observed crash time, a drift detector watches the resolved
// error, and a background worker retrains the shared model on the crashed
// runs the fleet itself collected, hot-swapping each new model epoch under
// the live sessions. The report then carries the per-epoch breakdown:
//
//	agingfleet -instances 1000 -shards 8 -adaptive
//
// The drift detector auto-calibrates its healthy-MAE baseline per epoch;
// when serving a -load-ed artifact that may already be stale, pin the
// target instead (auto-calibration would absorb the misfit):
//
//	agingfleet -instances 1000 -load model.bin -adaptive -drift-baseline 15m
//
// The run is observable while it happens: -listen serves the process-wide
// metrics registry in Prometheus text format at /metrics, a JSON liveness
// probe with the current model epoch at /healthz, and the standard runtime
// profiles under /debug/pprof; -events journals the run's discrete lifecycle
// events (crashes, rejuvenation alerts/dispatches/completions, drift trips,
// retrains, epoch swaps) as JSONL:
//
//	agingfleet -instances 1000 -adaptive -listen :9090 -events run.jsonl
//
// The run is deterministic in -seed: the same seed produces a byte-identical
// -json summary, and changing -shards changes nothing but the echoed
// "shards" field — with or without -adaptive (the retrain schedule is
// simulated time, not wall-clock), and with or without scrapers attached
// (metrics are observation-only). The -events journal is itself
// deterministic: same seed, same bytes, whatever the shard count.
// Human-readable output is the default; -json emits the machine-readable
// report on stdout and nothing else. Progress, the wall-clock line and the
// final metrics snapshot (one "metrics: {...}" JSON line, wall-clock series
// included) go to stderr, so the JSON stays clean for pipelines.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"agingpred"
	"agingpred/internal/adapt"
	"agingpred/internal/features"
	"agingpred/internal/fleet"
	"agingpred/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "agingfleet:", err)
		os.Exit(1)
	}
}

// run is the whole command: the report goes to stdout, progress, wall-clock
// figures and the -json metrics snapshot to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("agingfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		instances  = fs.Int("instances", 100, "fleet size (simulated application-server instances)")
		shards     = fs.Int("shards", runtime.GOMAXPROCS(0), "predictor worker shards (affects speed only, never results)")
		duration   = fs.Duration("duration", 24*time.Hour, "simulated serving time")
		seed       = fs.Uint64("seed", 1, "seed for the whole run (population, workloads, training)")
		threshold  = fs.Duration("threshold", 10*time.Minute, "predicted-TTF level below which an instance alerts")
		budget     = fs.Int("budget", 0, "max concurrent rejuvenations (0 = instances/10)")
		schema     = fs.String("schema", "", "feature schema of the shared model (default \"full\"; see the features schema registry)")
		classes    = fs.String("class-schema", "", "per-class schema overrides, \"class=schema\" comma list (e.g. conn-leak=full+conn)")
		loadPath   = fs.String("load", "", "serve a saved model artifact instead of training the shared model")
		savePath   = fs.String("save", "", "train the shared model, write it as a versioned artifact to this file, then serve it")
		adaptive   = fs.Bool("adaptive", false, "adaptive serving: drift detection, background retraining on collected crashes, hot model-epoch swaps")
		retrainLat = fs.Duration("retrain-latency", 0, "simulated time between a drift-triggered retrain and its epoch going live (0 = 10m; needs -adaptive)")
		baseline   = fs.Duration("drift-baseline", 0, "pin the healthy prediction MAE the drift detector compares against (0 = auto-calibrate per epoch; set this when -load-ing an artifact that may already be stale, since auto-calibration would absorb its misfit; needs -adaptive)")
		jsonOut    = fs.Bool("json", false, "emit the machine-readable JSON report on stdout, byte-identical for a seed (the final metrics snapshot goes to stderr as one \"metrics: {...}\" line)")
		listen     = fs.String("listen", "", "serve /metrics (Prometheus text format), /healthz and /debug/pprof on this address while the fleet runs (e.g. :9090)")
		events     = fs.String("events", "", "write the run's lifecycle events (crashes, rejuvenations, drift trips, retrains, epoch swaps) as JSONL to this file")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
		memProfile = fs.String("memprofile", "", "write an end-of-run heap profile to this file (inspect with go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	// Resolve schema flags before any training starts; unknown names fail
	// fast with the list of valid ones.
	var fleetSchema *features.Schema
	if *schema != "" {
		s, err := features.LookupSchema(*schema)
		if err != nil {
			return fmt.Errorf("invalid -schema: %w", err)
		}
		fleetSchema = s
	}
	classSchemas, err := parseClassSchemas(*classes)
	if err != nil {
		return err
	}
	if *loadPath != "" {
		if *savePath != "" {
			return errors.New("-save with -load would just copy the artifact; nothing is trained")
		}
		if *schema != "" || *classes != "" {
			return errors.New("-load serves the artifact's own schema; it cannot be combined with -schema or -class-schema")
		}
	}
	if (*retrainLat != 0 || *baseline != 0) && !*adaptive {
		return errors.New("-retrain-latency and -drift-baseline only apply to adaptive serving; add -adaptive")
	}
	if *baseline < 0 {
		return errors.New("-drift-baseline must be positive")
	}
	if *savePath != "" && *classes != "" {
		// The artifact holds only the base model, and -load rejects
		// -class-schema, so the saved file could never reproduce this run —
		// and the per-class overrides would re-simulate the training series
		// the base model was just trained on. Refuse the half-meaningful
		// combination.
		return errors.New("-save persists only the shared base model and cannot be combined with -class-schema; save without overrides, then serve with -load")
	}

	// Resolve the shared model up front when an artifact is involved; the
	// plain path leaves training to fleet.Run as before.
	var model *agingpred.Model
	switch {
	case *loadPath != "":
		model, err = agingpred.LoadModel(*loadPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "loaded %s: %s\n", *loadPath, model.Report())
	case *savePath != "":
		fmt.Fprintf(stderr, "training the shared model...\n")
		model, err = fleet.TrainModelSchema(*seed, fleetSchema)
		if err != nil {
			return err
		}
		if err := agingpred.SaveModel(*savePath, model); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "saved model to %s (format v%d); future runs can -load it\n",
			*savePath, agingpred.ModelFormatVersion)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *listen != "" {
		addr, stopSrv, err := startObsServer(*listen)
		if err != nil {
			return fmt.Errorf("-listen: %w", err)
		}
		defer stopSrv()
		fmt.Fprintf(stderr, "serving /metrics, /healthz and /debug/pprof on http://%s\n", addr)
	}
	var jnl *agingpred.EventJournal
	if *events != "" {
		var err error
		jnl, err = agingpred.CreateEventJournal(*events)
		if err != nil {
			return fmt.Errorf("-events: %w", err)
		}
	}

	verb := "training the shared model and serving"
	if model != nil {
		verb = "serving"
	}
	fmt.Fprintf(stderr, "%s %d instances on %d shards (%v simulated)...\n",
		verb, *instances, *shards, *duration)
	start := time.Now()
	rep, err := fleet.Run(fleet.Config{
		Instances:          *instances,
		Shards:             *shards,
		Duration:           *duration,
		Seed:               *seed,
		TTFThreshold:       *threshold,
		RejuvenationBudget: *budget,
		Model:              model,
		Schema:             fleetSchema,
		ClassSchemas:       classSchemas,
		Adaptive:           *adaptive,
		Adapt:              adapt.Config{Detector: adapt.DetectorConfig{BaselineSec: baseline.Seconds()}},
		RetrainLatency:     *retrainLat,
		Journal:            jnl,
		Ctx:                ctx,
	})
	if jnl != nil {
		if cerr := jnl.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("writing -events journal: %w", cerr)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// An interrupt mid-run is a clean operator-requested shutdown, not
			// a failure; the CI smoke test relies on the zero exit status.
			fmt.Fprintf(stderr, "agingfleet: %v\n", err)
			return nil
		}
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	if *jsonOut {
		// stdout carries only the deterministic report: the same seed gives
		// the same bytes. The metrics snapshot holds wall-clock series, so it
		// goes to stderr beside the wall-clock line, as one JSON line.
		js, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		snap, err := json.Marshal(agingpred.Metrics().Snapshot())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", js)
		fmt.Fprintf(stderr, "wall-clock time: %v (%.0f instance-checkpoints/sec)\n",
			elapsed, float64(rep.Checkpoints)/elapsed.Seconds())
		fmt.Fprintf(stderr, "metrics: %s\n", snap)
		return nil
	}
	fmt.Fprint(stdout, rep.String())
	fmt.Fprintf(stdout, "  wall-clock time: %v (%.0f instance-checkpoints/sec)\n",
		elapsed, float64(rep.Checkpoints)/elapsed.Seconds())
	return nil
}

// parseClassSchemas parses the -class-schema flag: a comma-separated list of
// "class=schema" pairs, both resolved against their registries so typos fail
// fast with the valid names.
func parseClassSchemas(s string) (map[fleet.Class]*features.Schema, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[fleet.Class]*features.Schema)
	for _, pair := range strings.Split(s, ",") {
		name, schemaName, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("invalid -class-schema entry %q: want class=schema (classes: %s; schemas: %s)",
				pair, strings.Join(fleet.ClassNames(), ", "), strings.Join(features.SchemaNames(), ", "))
		}
		class, err := fleet.ParseClass(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("invalid -class-schema: %w", err)
		}
		if _, dup := out[class]; dup {
			return nil, fmt.Errorf("invalid -class-schema: class %q listed twice", class)
		}
		schema, err := features.LookupSchema(strings.TrimSpace(schemaName))
		if err != nil {
			return nil, fmt.Errorf("invalid -class-schema: %w", err)
		}
		out[class] = schema
	}
	return out, nil
}
